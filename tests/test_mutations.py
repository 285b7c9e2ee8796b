"""Mutation properties: malformed input ends in exit 1 or 2 with a message, never a traceback.

The trace slice: each example makes one or two edits to a small synth trace,
from a fixed list of field tokens and line edits, and runs ``ingest --metric
all`` and the default arrivals ``ingest`` on it in process, with warnings
raised as errors. An accepted trace must give observations that read back,
arrival samples that sum to the reference reader's count of rows with a
usable timestamp, and the reference reader's reject count for each metric.
"""

import itertools
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from cyclecast.cli import main
from cyclecast.trace import ColumnMapping, read_observations

import oracles

# Field texts at the edges of the readers' rules: empty, negative, past
# int64, not finite, out of float range, subnormal, a non-ASCII digit, what
# only int takes or neither takes, and the two characters csv treats apart.
_TOKENS = ["", "-1", str(2**63), str(2**64), "nan", "inf", "-inf", "1e400", "5e-324", "١", "1_0", "0x10", '"', "\r"]
_INGEST = ["ingest", "--header", "--pp-tps", "4"]


@pytest.fixture(scope="session")
def synth_lines(tmp_path_factory):
    """The lines of a small synth trace, about 120 rows under a header."""
    out = tmp_path_factory.mktemp("synth")
    args = ["synth", "--tps", "8", "--pp-tps", "4", "--base-rate", "0.5", "--seed", "11", "--out-dir", str(out)]
    assert main(args) == 0
    return (out / "trace.csv").read_text(encoding="utf-8").splitlines(keepends=True)


def _edit(lines, edit):
    """``lines`` with one edit: a field set to a token, or a line deleted, duplicated or swapped."""
    kind, i, j, token = edit
    lines = list(lines)
    i, j = i % len(lines), j % len(lines)
    if kind == "field":
        fields = lines[i].removesuffix("\n").split(",")
        fields[j % len(fields)] = token
        lines[i] = ",".join(fields) + "\n"
    elif kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return lines


_EDITS = st.tuples(
    st.sampled_from(["field", "delete", "duplicate", "swap"]),
    st.integers(0, 200),
    st.integers(0, 200),
    st.sampled_from(_TOKENS),
)


def _reference(path):
    """The reference per-metric reader's results by metric name, the header taken as ``_parse_rows`` takes it."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        lines = itertools.dropwhile(lambda line: not line.strip("\r\n"), fh)
        return {m.value: r for m, r in oracles.parse_metrics(lines, ColumnMapping(has_header=True)).items()}


def test_mutated_trace_ingests_or_exits_with_a_message(synth_lines, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    runs = itertools.count()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(edits=st.lists(_EDITS, min_size=1, max_size=2))
    def check(edits):
        lines = synth_lines
        for edit in edits:
            lines = _edit(lines, edit)
        trace.write_bytes("".join(lines).encode("utf-8"))
        reference = _reference(trace)
        for metrics in (["all"], ["arrivals"]):
            out = tmp_path / f"out{next(runs)}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*_INGEST, "--metric", *metrics, "--trace", str(trace), "--out-dir", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2)
            if code:
                assert "cyclecast: error:" in err
                assert not out.exists()
                continue
            manifest = json.loads((out / "ingest.manifest.json").read_text())
            names = manifest["config"]["metrics"]
            assert len(manifest["outputs"]) == len(names) == (3 if metrics == ["all"] else 1)
            for name in manifest["outputs"]:
                assert len(read_observations(out / name)) > 0, name
            arrivals = read_observations(out / "observations_arrivals.csv").samples
            assert arrivals.sum() == len(reference["arrivals"].events)
            assert manifest["config"]["rejected_rows"] == {name: reference[name].rejected for name in names}

    check()
