"""The table-row recorder against the object recorder it replaced.

:class:`repro.obs.trace.RecordingTracer` records the rows a run-dir feed
stores and decodes its ``spans`` / ``events`` views from them.  Driven by
the same random call stream as :class:`tests.oracles.recording_tracer.ObjectRecorder`
-- row and dict calls, counters, nested ``span()`` blocks whose args change
inside the block, clears and reads in between -- it must give equal
views and tracks and byte-equal JSONL and Chrome exports.  The oracle
gets each arg as the Python value it stands for: numpy scalars
unwrapped, non-scalars after a JSON round trip.
"""

import json
from itertools import count

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.columns import json_default
from repro.obs.exporters import chrome_trace, events_jsonl
from repro.obs.trace import RecordingTracer
from tests.oracles.recording_tracer import ObjectRecorder

_I64 = 2**63
_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-_I64, max_value=_I64 - 1),
    st.integers(min_value=_I64, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-_I64 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.builds(np.float64, st.floats(allow_nan=False)),
    st.builds(np.float32, st.floats(allow_nan=False, width=32)),
    st.builds(np.int64, st.integers(min_value=-_I64, max_value=_I64 - 1)),
    st.builds(np.int32, st.integers(min_value=-(2**31), max_value=2**31 - 1)),
    st.builds(np.bool_, st.booleans()),
)
_non_scalars = st.recursive(
    st.one_of(st.none(), _scalars),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=5,
).filter(lambda v: v is None or isinstance(v, (list, tuple, dict)))
# A small key alphabet, so one key meets several value types.
_args = st.dictionaries(
    st.sampled_from("abcdqz"), st.one_of(_scalars, _non_scalars), max_size=4
)
_names = st.sampled_from(["serve", "completion", "arrival", "tick"])
_tracks = st.sampled_from(["worker-0", "worker-1", "balancer", "solver"])
_cats = st.sampled_from(["sim", "offline", "x"])
_floats = st.floats(allow_nan=False, allow_infinity=False)
_leaves = st.one_of(
    st.tuples(st.just("complete"), _names, _tracks, _floats, _floats, _cats,
              st.one_of(st.none(), _args)),
    st.tuples(st.just("instant"), _names, _tracks, _floats, _cats,
              st.one_of(st.none(), _args)),
    st.tuples(st.just("complete_row"), _names, _tracks, _floats, _floats, _args,
              _cats),
    st.tuples(st.just("instant_row"), _names, _tracks, _floats, _args, _cats),
    st.tuples(st.just("counter"), _names, _tracks, _floats,
              st.one_of(_floats, st.integers(-1000, 1000))),
    st.tuples(st.just("read")),
    st.tuples(st.just("clear")),
)
_programs = st.recursive(
    st.lists(_leaves, max_size=6),
    lambda body: st.lists(
        st.one_of(
            _leaves,
            st.tuples(st.just("span"), _names, _tracks, _cats,
                      st.one_of(st.none(), _args), _args, body),
        ),
        max_size=6,
    ),
    max_leaves=20,
)


def plain(value):
    """The Python value the recorder stores ``value`` as."""
    if isinstance(value, (np.generic,)):
        return value.item()
    if value is None or isinstance(value, (list, tuple, dict)):
        return json.loads(json.dumps(value, sort_keys=True, default=json_default))
    return value


def _given(args, oracle):
    if args is None:
        return None
    return {k: plain(v) for k, v in args.items()} if oracle else dict(args)


def run(tracer, program, oracle):
    for op in program:
        kind, rest = op[0], op[1:]
        if kind == "read":
            _ = (tracer.spans, tracer.events)
        elif kind == "clear":
            tracer.clear()
        elif kind == "counter":
            tracer.counter(*rest)
        elif kind in ("complete", "instant"):
            *head, args = rest
            getattr(tracer, kind)(*head, args=_given(args, oracle))
        elif kind in ("complete_row", "instant_row"):
            *head, args, cat = rest
            args = _given(args, oracle)
            getattr(tracer, kind)(*head, tuple(args), tuple(args.values()), cat)
        else:
            name, track, cat, args, update, body = rest
            args = _given(args, oracle)
            with tracer.span(name, track=track, category=cat, args=args):
                run(tracer, body, oracle)
                if args is not None:
                    args.update(_given(update, oracle))


@settings(max_examples=150, deadline=None)
@given(_programs)
def test_rows_decode_to_the_object_recorders_records(program):
    recorder, oracle = RecordingTracer(), ObjectRecorder()
    recorder._now_ms = count(0.0, 0.25).__next__
    oracle._now_ms = count(0.0, 0.25).__next__
    run(recorder, program, oracle=False)
    run(oracle, program, oracle=True)
    assert recorder.spans == oracle.spans
    assert recorder.events == oracle.events
    assert recorder.tracks() == oracle.tracks()
    assert events_jsonl(recorder) == events_jsonl(oracle)
    assert json.dumps(chrome_trace(recorder)) == json.dumps(chrome_trace(oracle))
    assert json.dumps(chrome_trace(recorder, split_processes=True)) == json.dumps(
        chrome_trace(oracle, split_processes=True)
    )
    assert len(recorder.table) == len(recorder.spans) + len(recorder.events)
