"""Golden outputs: bytes and values that every refactor must reproduce exactly.

The hashes and values were taken from the code before the record and data
paths became columnar; the spin sweep hashes are the ones the benchmark's
oracles pin as well.
"""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from bellwigner import AngleConfig, cli, make_rng, matched_pairs_estimate
from bellwigner.cli import main
from bellwigner.sweep import _grid_floats

MC_CONFIG = AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "resolution, kind, mode, convention, digest",
    [
        (12, "bell", "paper", "spin", "cf5da3f76b576dc3b5b6aa332f8c79ee5b4ad083dc406b96335500b86f6af0e6"),
        (12, "wigner", "naive", "spin", "f74cd6ea5050202a6e9b92d623b312764b4f33dfbe39a1bf7bad69edc245d37a"),
        (12, "wigner", "naive", "optical", "417248fc57255eb0d0bc7a1d760a6747681fc4f879f48b8853b23c176829f60f"),
        # R=60 streams hold 3k-12k distinct values, on both sides of the
        # writer's 2^13-entry text cache; the spin digests are the benchmark's pins
        (60, "wigner", "naive", "spin", "c88f6c5b6a7766cb8d514ce1aa1edc7fd6504893435289d0d13fd6f321fd6038"),
        (60, "bell", "paper", "spin", "fb4f2cc5a0aa4e16438ff0b671f277314ff909d8e7187ddac3e451ca17fb45bd"),
        (60, "wigner", "naive", "optical", "634dcc1964a84a5f0fa5655161a1aeb193e4e48ac24b3e7bc77d50a0546ab175"),
        (60, "bell", "paper", "optical", "9245c3a295834a4e50073a766d9a6c09daf8448fbed89eedcc1107b4bf360753"),
        (60, "bell", "naive", "spin", "dc711639bf98a4b710b676dee58dd9b083023f5e8bcb1754ca30abed8eac7c35"),
        (60, "wigner", "paper", "spin", "f1ec1a000868fc8627085496cb5c1641de916af8aca14c53cf0ae2060d20b577"),
        (60, "bell", "naive", "optical", "7b9ff5516ea57332f7e6c25d4609add8a50bcb715f146658d8ab93c59de275cd"),
        (60, "wigner", "paper", "optical", "f62cd992cf852a0809f91f938de8f211c84ac16e9f1d1eb3fca45a5dcc061937"),
    ],
)
def test_sweep_records_bytes(tmp_path, capsys, resolution, kind, mode, convention, digest):
    out = tmp_path / "records.csv"
    main(["sweep", "--kind", kind, "--mode", mode, "--convention", convention,
          "--resolution", str(resolution), "--out", str(out)])
    capsys.readouterr()
    assert sha256(out) == digest


@pytest.mark.parametrize(
    "kind, mode, digest",
    [
        ("bell", "paper", "555a8e7791e7777e1f229c0afdd8f787c1a23b150731b27624b983cc554ab355"),
        ("bell", "naive", "a18fb19c0f858fb16bb9fc14699b836f2544a54475ee77c4339141d376f6bdba"),
        ("wigner", "paper", "960d2e17b371c448c222948b024687a379bde1cbd9c38fe4707bdfef4487db11"),
        ("wigner", "naive", "21876e931989cd30aa91ef527f5710fbc0a0db86ed7ff8a1d1effd5d82a8dfc6"),
    ],
)
def test_sweep_census_json_bytes(capsys, kind, mode, digest):
    # the R=200 summary pins the count, the minimum margin and the first
    # argmin of the candidate sweep
    main(["sweep", "--kind", kind, "--mode", mode, "--resolution", "200"])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def libm_arguments(resolutions):
    """The floats that the sweep golden cases at these resolutions pass to math.sin and math.cos.

    A record stream takes each term at x - a, and the NAIVE third pair's at
    b - b', over every pair of grid angles. The census takes the grid angles
    themselves (x - 0.0 is x) and b - b' of its candidate points, a subset
    of those differences. The kernels scale a difference d to k d or 2k d,
    with k = 1/2 (SPIN) or 1 (OPTICAL).
    """
    args = set()
    for resolution in resolutions:
        angles = _grid_floats(resolution)
        differences = {x - a for x in angles for a in angles}
        args.update(f * k * d for f in (1.0, 2.0) for k in (0.5, 1.0) for d in differences)
    return sorted(args)


def test_libm_fingerprint_of_the_sweep_digests():
    # The record and census digests above take their sines and cosines from
    # the platform libm (glibc 2.36, x86_64, when they were pinned). The
    # arguments are IEEE arithmetic and hash alike on every host; the values
    # are the libm's. So where only the values differ, so will those digests.
    args = libm_arguments((12, 60, 200))
    assert hashlib.sha256(struct.pack(f"<{len(args)}d", *args)).hexdigest() == (
        "4402385ef5cdc444868da1ac962c4d66190d20a49f9b517833baad933deb9539"
    ), "the sweep's trig arguments changed: the grid or the kernels' scaling differs"
    values = b"".join(struct.pack("<3d", x, math.sin(x), math.cos(x)) for x in args)
    assert hashlib.sha256(values).hexdigest() == (
        "20dfb8eda78025de1a1d7c833863eb0d0c764501762e73a5a9a1e0899ac86d47"
    ), (
        "math.sin/math.cos differ from the libm that the sweep record and census "
        "digests were pinned on, so those digests cannot match on this host"
    )


def test_libm_fingerprint_covers_every_sweep_argument(tmp_path, monkeypatch, capsys):
    # every kind, mode and convention at R = 12 (the R = 60 streams take the
    # same steps on a finer grid) and the four R = 200 censuses
    seen = set()
    for name in ("sin", "cos"):
        def call(x, real=getattr(math, name)):
            seen.add(x)
            return real(x)

        monkeypatch.setattr(math, name, call)
    for kind in ("bell", "wigner"):
        for mode in ("paper", "naive"):
            for convention in ("spin", "optical"):
                main(["sweep", "--kind", kind, "--mode", mode, "--convention", convention,
                      "--resolution", "12", "--out", str(tmp_path / "records.csv")])
    assert seen and seen <= set(libm_arguments([12]))
    seen.clear()
    for kind in ("bell", "wigner"):
        for mode in ("paper", "naive"):
            main(["sweep", "--kind", kind, "--mode", mode, "--resolution", "200"])
    capsys.readouterr()
    assert seen and seen <= set(libm_arguments([200]))


def sampling_libm_arguments():
    """The floats that the simulate, convergence and matched-pairs golden cases pass to math.sin and math.cos.

    The sampler takes sin and cos of k (s - a) at each B-side setting s
    (`_conditionals`), and the summaries cos of 2k (s - a)
    (`bell_correlation`, `third_correlation`). Every case uses the witness
    angles (the matched pairs swap b and b'), with k = 1/2 (SPIN) or 1 (OPTICAL).
    """
    a, b, bp = cli._parse_angles(cli._WITNESS_ANGLES, False)
    return sorted({f * k * (s - a) for f in (1.0, 2.0) for k in (0.5, 1.0) for s in (b, bp)})


def test_libm_fingerprint_of_the_sampling_digests():
    # the sampling digests below rest on the platform libm as the sweep's do:
    # the conditional probabilities set every raw-draw limit
    args = sampling_libm_arguments()
    assert hashlib.sha256(struct.pack(f"<{len(args)}d", *args)).hexdigest() == (
        "5a8eff85fef982cb241665aed81e46eaa0c5a39ff820dcd98ee81fb91d966faf"
    ), "the sampler's trig arguments changed: the witness angles or the scaling differs"
    values = b"".join(struct.pack("<3d", x, math.sin(x), math.cos(x)) for x in args)
    assert hashlib.sha256(values).hexdigest() == (
        "f66ccf534cb46f9b417f350f72e139ac9859f2ea5763a4bc7df4a298103dc742"
    ), (
        "math.sin/math.cos differ from the libm that the simulate and convergence "
        "digests were pinned on, so those digests cannot match on this host"
    )


def test_libm_fingerprint_covers_every_sampling_argument(tmp_path, monkeypatch, capsys):
    # the arguments do not depend on the sample count, so small runs of each
    # golden case, on both simulate paths, show every one
    seen = set()
    for name in ("sin", "cos"):
        def call(x, real=getattr(math, name)):
            seen.add(x)
            return real(x)

        monkeypatch.setattr(math, name, call)
    monkeypatch.chdir(tmp_path)
    for draws in (cli._STDLIB_DRAWS, 0):
        monkeypatch.setattr(cli, "_STDLIB_DRAWS", draws)
        main(["simulate", "--n", "10", "--out", "sim.csv"])
    for extra in ([], ["--convention", "optical", "--format", "json"]):
        main(["convergence", "--n-list", "10", *extra])
    matched_pairs_estimate(MC_CONFIG, 100, make_rng(42, stream=1))
    capsys.readouterr()
    assert seen and seen <= set(sampling_libm_arguments())


def test_simulate_file_bytes(tmp_path, capsys):
    # 1000 trials are drawn by the standard-library Philox, 200,000 (below) by numpy's
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "1000", "--seed", "42", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out) == "2f388b838b97403c239395d16b1e34731f824281092ad13ea0f484abaf375dc0"


def test_simulate_multi_slice_bytes(tmp_path, monkeypatch, capsys):
    # 200,000 trials span several draw slices, so the file and its summary
    # pin the order in which slices are written
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "200000", "--seed", "42", "--out", "sim.csv"]) == 0
    summary = capsys.readouterr().out
    assert sha256(tmp_path / "sim.csv") == "b2f7d58c4710ae4ed645c4b80cc4c385cc6ee1bc0a628c7658c45525f6c4c422"
    assert hashlib.sha256(summary.encode()).hexdigest() == (
        "db2799fac5af3f267b181a6d6a419b8bf67e3646780a38ddf2de41d6b55dede0"
    )


@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "f31db8f693fef61cb0960f43130f89412dd1bf3a1f97f5d13668279756efa721"),
        (["--convention", "optical", "--format", "json"],
         "b0f0ffb25ff1987119402bb2dd9e72f653769adc9451227e5b25ff146b79767e"),
    ],
    ids=["csv", "optical-json"],
)
def test_convergence_output_bytes(tmp_path, capsys, extra, digest):
    # the sample counts fall on both sides of 2**19 and span many draw slices
    out = tmp_path / "convergence.out"
    argv = ["convergence", "--n-list", "1,524287,524288,1048577,3000001", "--seed", "1"]
    assert main(argv + extra + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out) == digest


def test_matched_pairs_value():
    value = matched_pairs_estimate(MC_CONFIG, 10**4, make_rng(42, stream=1))
    assert value == -0.26189042745334135


def test_check_data_quad_report(tmp_path, capsys):
    path = tmp_path / "q.csv"
    path.write_text("a,ap,b,bp\n+1,+1,+1,+1\n-1,+1,-1,-1\n1,-1,1,-1\n-1,-1,+1,+1\n+1,-1,-1,+1\n")
    assert main(["check-data", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "check-data",
        "path": str(path),
        "n": 5,
        "kind": "DATA_BELL_4",
        "mode": "EXACT_DATA",
        "lhs": 0.4,
        "rhs": 2.0,
        "margin": 1.6,
        "satisfied": True,
        "tolerance": 0.0,
    }


def seeded_trial_file(path, header, rows, seed, line_end="\n", quoted_row=None):
    """A seeded trials file with mixed cell spellings; one cell quoted if asked."""
    rng = np.random.default_rng(seed)
    width = len(header.split(","))
    plus = rng.integers(0, 2, size=(rows, width)).astype(bool)
    spelling = rng.integers(0, 3, size=(rows, width))
    cells = [
        [("+1", "1", " 1 ")[k] if p else ("-1", " -1", "-1\t")[k] for p, k in zip(ps, ks)]
        for ps, ks in zip(plus.tolist(), spelling.tolist())
    ]
    if quoted_row is not None:
        cells[quoted_row][1] = f'"{cells[quoted_row][1]}"'
    path.write_text(header + line_end + "".join(",".join(r) + line_end for r in cells), newline="")


@pytest.mark.parametrize(
    "header, rows, line_end, quoted_row, digests",
    [
        # about 60 KB: the fast path takes the first chunk, then the quoted
        # cell hands the rest of the file to the csv loop; the 72 KB quads
        # file stays on the fast path for all of its chunks
        ("a,b,bp", 6000, "\n", 3500,
         ("aaab7788b2cf236cf69724c3a94fd230502478e227b5748dcbb9af4127e06e90",
          "3d53a2971828897f8f514a345af035b7d5b72f6d1ae186c0804936f94059bb75")),
        ("a,ap,b,bp", 5000, "\r\n", None,
         ("db47eee14334473a6eaf1822dde846c8cd0d331230015c7402903fb24bc328ae",
          "27f8acfa95916c38b93073f0ba867f8749e5a0c8794b9d1f3f89126a4b0e83d0")),
    ],
    ids=["triples-hand-over", "quads"],
)
def test_check_data_output_bytes(tmp_path, monkeypatch, capsys, header, rows, line_end, quoted_row, digests):
    monkeypatch.chdir(tmp_path)
    seeded_trial_file(tmp_path / "trials.csv", header, rows, 7, line_end, quoted_row)
    outputs = []
    for fmt in ("json", "csv"):
        assert main(["check-data", "trials.csv", "--format", fmt]) == 0
        outputs.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(outputs) == digests


@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "1ce04dfba915b4e61f653913e2b3c16894c453c30e5c1c5d89d9157edd8ebeea"),
        (["--angles=0.3,1.7,-2.2", "--convention", "optical", "--mode", "naive"],
         "6e0a49931fddd3e15dc5eaa9f39c75e763e2e36e5e6ca0c1ff61563789da40dc"),
    ],
    ids=["defaults", "optical-naive"],
)
def test_analytic_output_bytes(capsys, extra, digest):
    main(["analytic"] + extra)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
