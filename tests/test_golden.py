"""Byte-identity gate: every command reruns on the committed inputs in
``golden/inputs`` and must write, byte for byte, the files committed in
``golden/expected/<case>``; ``golden/README.md`` says how both were made.

Only outputs that hold on every OpenBLAS kernel and thread count are kept:
TSA is an argmax, RD and RWO are exact counts, and no logit is written.
Changing a committed file is changing a correctness check: declare it, with
its reason and its diff.
"""

import csv
import itertools
import json
import shutil
from pathlib import Path

import pytest

from xbardse import cli

GOLDEN = Path(__file__).parent / "golden"
# (network, scored set) of each committed input pair
NETWORKS = {"fixture": ("fixture_net.json", "fixture_test.csv"),
            "conv2d": ("conv2d_net.json", "conv2d_test.csv")}
# the grid CI runs on one BLAS thread and on the Sandybridge kernel
GRID = {"scheme": ["sparse_staggered", "dense_routed", "dense_kernel"], "tile_size": [8, 32],
        "io_bit_width": [6], "batch_size": [16, 64]}
# the same grid on ideal I/O (no DAC or ADC grid) and on a coarse 4-bit one
IO_GRID = {**GRID, "io_bit_width": [None, 4]}
POINT = {"scheme": ["dense_routed"], "tile_size": [16]}
SCHEMES = ("sparse_staggered", "dense_routed", "dense_kernel")
# (network, command, space) of each case that runs from a run config
CONFIGS = {**{f"{net}_{command}": (net, command, space) for net in NETWORKS
              for command, space in (("dse", GRID), ("simulate", POINT))},
           "fixture_dse_io": ("fixture", "dse", IO_GRID)}


def cases() -> dict[str, list[str]]:
    """The argv of every case, run in a directory that ``prepare`` filled,
    each writing into its ``out`` subdirectory; a report case re-emits the
    committed results of its network's dse case."""
    argv = {case: [command, "--config", f"{case}.json"]
            for case, (_, command, _) in CONFIGS.items()}
    for net, (network, _) in NETWORKS.items():
        argv[f"{net}_report"] = ["report", "--out", "out", "--results",
                                 str(GOLDEN / "expected" / f"{net}_dse" / "results.csv")]
        for scheme in SCHEMES:
            argv[f"{net}_cost_{scheme}"] = ["cost", "--net", network, "--scheme", scheme,
                                            "--tile-size", "8", "--out", "out"]
    return argv


CASES = cases()


def prepare(workdir: Path) -> None:
    """Copy the inputs into ``workdir``, write the run configs there, with
    paths relative to it, and make the empty ``out`` directory."""
    for name in itertools.chain(*NETWORKS.values()):
        shutil.copy(GOLDEN / "inputs" / name, workdir / name)
    for case, (net, _, space) in CONFIGS.items():
        network, dataset = NETWORKS[net]
        config = {"format_version": 1, "network": network, "dataset": dataset,
                  "out": "out", "seed": 0, "space": space}
        (workdir / f"{case}.json").write_text(json.dumps(config))
    (workdir / "out").mkdir()


def first_difference(name: str, got: bytes, want: bytes) -> str | None:
    """None if the bytes agree, else where they first differ: the file, the
    line, and in a CSV the data row (counted from 0 after the header) and the
    column its header names."""
    if got == want:
        return None
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    for line, (g, w) in enumerate(itertools.zip_longest(got_lines, want_lines)):
        if g != w:
            break
    else:
        return f"{name}: every line agrees, the line endings differ"
    where = f"{name} line {line + 1}"
    header = next((i for i, text in enumerate(want_lines) if not text.startswith("#")), None)
    if name.endswith(".csv") and None not in (g, w, header) and line > header:
        columns = next(csv.reader([want_lines[header]]))
        for col, (a, b) in enumerate(itertools.zip_longest(*csv.reader([g, w]))):
            if a != b:
                label = columns[col] if col < len(columns) else f"#{col}"
                return (f"{where}, row {line - header - 1}, column {label}: "
                        f"got {a!r}, expected {b!r}")
    return f"{where}: got {g!r}, expected {w!r}"


@pytest.mark.parametrize("case", list(CASES))
def test_command_writes_the_committed_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    prepare(tmp_path)
    assert cli.main(CASES[case]) == 0, capsys.readouterr().err
    expected = GOLDEN / "expected" / case
    names = sorted(path.name for path in expected.iterdir())
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == names
    mismatches = [first_difference(name, (tmp_path / "out" / name).read_bytes(),
                                   (expected / name).read_bytes()) for name in names]
    assert not any(mismatches), "\n".join(filter(None, mismatches))


@pytest.mark.parametrize("got, want, message", [
    (b"a,b\r\n1,2\r\n", b"a,b\r\n1,3\r\n", "x.csv line 2, row 0, column b: got '2', expected '3'"),
    (b"# c\r\na,b\r\n1,2\r\n4,5\r\n", b"# c\r\na,b\r\n1,2\r\n4,6\r\n",
     "x.csv line 4, row 1, column b: got '5', expected '6'"),
    (b"a,b\r\n1,2\r\n", b"a,b\r\n1,2\r\n3,4\r\n", "x.csv line 3: got None, expected '3,4'"),
    (b"a,b\n", b"a,b\r\n", "x.csv: every line agrees, the line endings differ"),
])
def test_first_difference_names_file_row_and_column(got, want, message):
    assert first_difference("x.csv", got, want) == message
    assert first_difference("x.csv", want, want) is None
