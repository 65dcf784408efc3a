"""Every pinned output: the commands that write it and the sha256 of its bytes.

Equal digests mean a change left every answer and every byte the package
writes as it was. ``PINS`` is the one table, the concatenation of its
groups: ``CLI_20K``, ``DRAW_SCM`` and ``BENCHMARK_SCALE``.
``test_pinned.py`` checks the whole table; ``test_cli.py`` and
``test_simulate.py`` check the first two groups. Through the session's
``pinned_sha256`` fixture, each command runs once a session, in one fresh
directory, whichever test asks for it first.

A CLI command is an argv for ``dohazard.cli.main`` with ``--quiet`` added;
a dict in it stands for a JSON file of that dict. An entry lists every
command its output needs, so that one entry can be rerun alone. A
``DrawScm`` command is one ``truth.draw_scm`` call, and its outputs are the
columns x, z, u and failure, each as its float64 bytes (a pinned None: the
call returns no such column).

To re-pin, edit the sha256 of each entry that moved, and say in CHANGES.md
why it moved. The digests hold for ``PINNED_TOOLCHAIN`` only.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dohazard as dh

from dohazard import cli

from conftest import make_backdoor_config, make_frontdoor_config
from truth import draw_scm

# numpy's exp, log, log1p, expm1 and power give other last bits where its
# AVX512 loops are not dispatched.
PINNED_TOOLCHAIN = "numpy 2.4.6, scipy 1.17.1, AVX512 loops dispatched"
# numpy's AVX512 dispatch targets; the pinned digests are taken with them on,
# and NPY_DISABLE_CPU_FEATURES naming them puts numpy at its AVX2 level
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def toolchain():
    """The numpy and scipy versions, and whether numpy dispatches its
    AVX512 loops on this CPU (the dispatch targets it takes, in brackets)."""
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    taken = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    avx512 = any(target == "X86_V4" or target.startswith("AVX512") for target in taken)
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"AVX512 loops {'dispatched' if avx512 else 'not dispatched'} [{' '.join(taken)}]")


def takes_avx512(toolchain_line: str) -> bool:
    """Whether a toolchain() line has numpy take one of AVX512_TARGETS."""
    return bool(set(AVX512_TARGETS) & set(toolchain_line.rsplit("[", 1)[1].rstrip("]").split()))


def toolchain_note():
    """What a digest mismatch is read against: the pinned toolchain and
    this run's."""
    return f"they are pinned for {PINNED_TOOLCHAIN}, and this run has {toolchain()}"


@dataclass(frozen=True)
class DrawScm:
    """The call truth.draw_scm(config, n, seed)."""

    config: dh.ScenarioConfig
    n: int
    seed: int


@dataclass(frozen=True)
class Pin:
    name: str
    command: tuple | DrawScm  # CLI argvs, run in order, or one draw_scm call
    output: str               # the file the last argv writes, or a draw_scm column
    sha256: str | None        # None: the draw_scm column is None


def experiment(scenario: dh.ScenarioConfig, contrasts, horizon_grid, oracle_n) -> dict:
    return {"scenario": scenario.to_dict(), "contrasts": contrasts, "horizon_grid": horizon_grid, "oracle_n": oracle_n}


# The conftest scenarios at n=20_000 through every subcommand.
BACKDOOR = make_backdoor_config(n_subjects=20_000)
FRONTDOOR = make_frontdoor_config(n_subjects=20_000)
SIMULATE = {
    "backdoor": ("simulate", BACKDOOR.to_dict(), "--out", "backdoor.csv"),
    "frontdoor": ("simulate", FRONTDOOR.to_dict(), "--out", "frontdoor.csv"),
}
FIT_BACKDOOR = ("fit", "backdoor.csv", "--out", "backdoor_fit.json")
EXPERIMENT_20K = {
    dag: ("experiment", experiment(config, [[1, 0], [2, -1]], [5, 10], 20_000), "--out-dir", f"{dag}_20k")
    for dag, config in (("backdoor", BACKDOOR), ("frontdoor", FRONTDOOR))
}


def estimate(dag: str, contrast: str, t: str, sha256: str, fit: bool = False) -> Pin:
    """The backdoor or frontdoor command on its n=20_000 cohort, with the
    backdoor fit read from backdoor_fit.json when fit is set."""
    name = " ".join([dag, *["--fit"] * fit, contrast, f"t={t}"])
    out = name.replace(" ", "_") + ".json"
    extra = ("--fit", "backdoor_fit.json") if fit else ()
    argv = (dag, f"{dag}.csv", "--contrast", contrast, "--t", t, *extra, "--out", out)
    return Pin(name, (SIMULATE[dag], *[FIT_BACKDOOR] * fit, argv), out, sha256)


def oracle(dag: str, arms: tuple, sha256: str) -> Pin:
    """The oracle command on the n=20_000 scenario, 20_000 subjects per arm."""
    name = " ".join(["oracle", dag, *arms])
    out = name.replace(" ", "_") + ".json"
    return Pin(name, (("oracle", SIMULATE[dag][1], *arms, "--n", "20000", "--out", out),), out, sha256)


def draw_scm_pins(dag: str, config: dh.ScenarioConfig, **sha256) -> tuple:
    """One pin per named column of truth.draw_scm(config, 40_000, config.seed)."""
    call = DrawScm(config, 40_000, config.seed)
    return tuple(Pin(f"draw_scm {dag} {column}", call, column, digest) for column, digest in sha256.items())


# The benchmark's scenarios (perfbench/workloads.py) and a days-scale one.
# - save_dataset formats floats in numpy and hands the few values its exact
#   path does not take to Python's '%.17g' %. 97.6% of the n=1e6 cohort's
#   times are the horizon, which the writer formats once per column and
#   copies, so its CSV guards that tied-time path; the experiment_frontdoor
#   cohort (u_latent, random censoring) guards it where 78% of the times tie.
#   Values from 10 up go to Python's formatter too, and 58.3% of the
#   days-scale cohort's rows are untied times from 10 up, so its CSV guards
#   that path at scale.
# - The Cox fit sorts only the rows below the largest time, sums the rows
#   tied there pairwise, chunk by chunk, and sums the linear predictor
#   column by column with no BLAS, as the standardization does. So the fits
#   (97.6%, 78% and 40% tied) and the n=1e6 backdoor file keep their bytes
#   under one BLAS thread, as on the benchmark's pinned CPU, and under the
#   default thread count; CI runs this table under both.
# - The oracle draws its noise once per pass and counts every arm and
#   every compared pair from it, on the cumulative-hazard scale with a
#   Weibull baseline, so both experiments keep the bytes one draw per arm
#   gives them, with the paired SEs of the ratio and PAF rows.
COHORT_1E6 = make_backdoor_config(n_subjects=1_000_000)
EXPERIMENT_FRONTDOOR = make_frontdoor_config(
    n_subjects=200_000, baseline_hazard=dh.WeibullHazard(1.5, 120.0), censor_rate=0.02
)
DAYS = make_backdoor_config(
    n_subjects=200_000, seed=11, baseline_hazard=dh.WeibullHazard(1.5, 1200.0), horizon_t=365.0, censor_rate=0.002
)
SIMULATE_1E6 = ("simulate", COHORT_1E6.to_dict(), "--out", "cohort_1e6.csv")
FIT_1E6 = ("fit", "cohort_1e6.csv", "--out", "cohort_1e6_fit.json")
SIMULATE_FD = ("simulate", EXPERIMENT_FRONTDOOR.to_dict(), "--out", "experiment_frontdoor.csv")
SIMULATE_DAYS = ("simulate", DAYS.to_dict(), "--out", "days.csv")
BACKDOOR_RUN = ("experiment", experiment(make_backdoor_config(), [[1, 0], [2, 0], [-1, 0]], [2.5, 5, 7.5, 10], 200_000),
                "--out-dir", "experiment_backdoor")
FRONTDOOR_RUN = ("experiment", experiment(EXPERIMENT_FRONTDOOR, [[1, 0]], [10], 1_000_000),
                 "--out-dir", "experiment_frontdoor")

# Every subcommand's outputs on those n=20_000 scenarios.
CLI_20K = (
    Pin("simulate backdoor cohort.csv", (SIMULATE["backdoor"],), "backdoor.csv",
        "568a26d8f633f87be4b59968a607afaeabba38aed69677822588d8b9f8f1b618"),
    Pin("simulate frontdoor cohort.csv", (SIMULATE["frontdoor"],), "frontdoor.csv",
        "707fe1812727af503d67880d00ecbde85e1368888b8467258b28d165fec3c403"),
    estimate("backdoor", "1,0", "10", "45b84ad9cbe8284bdce94e94ac846f2a0e24476eeccb7668e90f4769ced6c63c"),
    estimate("backdoor", "2,-1", "5", "523e99b7959cd4ed13be60448879b773a788beb558cc2de55db01c46ebdab540"),
    estimate("backdoor", "1,0", "10", "45b84ad9cbe8284bdce94e94ac846f2a0e24476eeccb7668e90f4769ced6c63c", fit=True),
    estimate("backdoor", "2,-1", "5", "523e99b7959cd4ed13be60448879b773a788beb558cc2de55db01c46ebdab540", fit=True),
    estimate("frontdoor", "1,0", "10", "d91b0a092140da16f661b843ad23bd3ebe92a92e123eb46ca5661de6a04c4542"),
    estimate("frontdoor", "2,-1", "5", "b1b141d4ec9df838544240de532e6c15eedc1009bb8196eba93a55a5047e9cf1"),
    oracle("backdoor", ("--x", "1"), "23f3f02e20da84c9d25dcc970cd9c83b1ded680ff90b6a19337701ccd88b335f"),
    oracle("backdoor", ("--x", "1", "--x0", "0"), "cef5db76570bebe74455ef811a8c9da3eac935c39ba1e5c85bd6f0ad6eb25a3d"),
    oracle("backdoor", ("--x", "2", "--x0", "-1"), "f764a4fb9365902ac8904c23f12643c6478b5313177e38a9596848ca05e759fb"),
    oracle("frontdoor", ("--x", "1"), "e9f1177fc3cbbd491a22520b556f8d808f96f026f952b2699702dfe4a96330a2"),
    oracle("frontdoor", ("--x", "1", "--x0", "0"), "a43aa844c4ce085c61d6b60e7ea2cdfbcce07488beb69398a8aed72abbc82261"),
    oracle("frontdoor", ("--x", "2", "--x0", "-1"), "8380c6f73b9f0dd3abc1724b6db3384f22f8fa235a65b4efe9ab9314ce1cddb0"),
    Pin("experiment backdoor estimates.csv", (EXPERIMENT_20K["backdoor"],), "backdoor_20k/estimates.csv",
        "0b9f32b46f7ec46bdfe782dd4cc3f92e8f9bc7a7b9e6a2a7242ad770703b1f81"),
    Pin("experiment backdoor report.json", (EXPERIMENT_20K["backdoor"],), "backdoor_20k/report.json",
        "4cfd34863bc7121d61c464c0e3c613dcdcb0877f13f36b3e7486794ce00b3f51"),
    Pin("experiment frontdoor estimates.csv", (EXPERIMENT_20K["frontdoor"],), "frontdoor_20k/estimates.csv",
        "09772bdd5dbacbff0919d23763376ce7af142fb43d8a4f0d481a45a0b2b89794"),
    Pin("experiment frontdoor report.json", (EXPERIMENT_20K["frontdoor"],), "frontdoor_20k/report.json",
        "89b009f7c477f13d3731804fd61d82177661e7ca96e767a1726a870dee5048f3"),
)

# The structural model's columns, which test_simulate checks to be the
# whole-array draw; the backdoor model has no U column.
DRAW_SCM = {
    "backdoor": draw_scm_pins("backdoor", make_backdoor_config(),
                   x="b2e7147568611291373ceb65cbee13056b7feccb4cfc0f350b7a6dfe3a92ae0d",
                   z="f078a5f0af831f4e2ea56e2dfdb25f421d01ddbaa8dd5e883ab60c2a088991f9",
                   u=None,
                   failure="2316561f3606a7b11e31d94c3ec7076e0bdc9a12e0851e53635d20e7e95ff317"),
    "frontdoor": draw_scm_pins("frontdoor", make_frontdoor_config(),
                   x="695585279fdbf4a7bb1b49e8197983c137245c38d0947588e4d9578c94e7bbbb",
                   z="8b10c559c0f44412e72f1f71b4ce7bb3edea43452e187b4704aba021a0bcdb00",
                   u="c5e483bb8f73142c1f36354b4c70bf49f687bf5491df4024e0c443796eca933e",
                   failure="ac70a1d7635ba0319d387154355e4f1ecee5c95689d458aa0e62f1f483855e0a"),
}

# The benchmark's scenarios and the days-scale one, described above.
BENCHMARK_SCALE = (
    Pin("cohort_1e6 cohort.csv", (SIMULATE_1E6,), "cohort_1e6.csv",
        "6f429c0eb04e07b58cba0febba8798a48fca40e02401c61e7bb26bceaceba873"),
    Pin("cohort_1e6 fit.json", (SIMULATE_1E6, FIT_1E6), "cohort_1e6_fit.json",
        "7c73f15ffae2c09d15352ca91f709a291d2abd4a865ff7d51bd4c779ccb21b47"),
    Pin("cohort_1e6 backdoor.json",
        (SIMULATE_1E6, FIT_1E6, ("backdoor", "cohort_1e6.csv", "--fit", "cohort_1e6_fit.json", "--contrast", "1,0",
                                 "--t", "10", "--out", "cohort_1e6_backdoor.json")),
        "cohort_1e6_backdoor.json", "72e49647fb4bdd7c0d937804c9f4cdc958beafcedf196c45df9c66f5c936cb99"),
    Pin("experiment_frontdoor cohort.csv", (SIMULATE_FD,), "experiment_frontdoor.csv",
        "2ca011ea6a512936fa52aa2824e352e5a4551812f90a8bd49736ac74c4e5b1c4"),
    Pin("experiment_frontdoor fit.json",
        (SIMULATE_FD, ("fit", "experiment_frontdoor.csv", "--out", "experiment_frontdoor_fit.json")),
        "experiment_frontdoor_fit.json", "364c65a64662b72e11305c774ea66ce1ff4aa6bd5bab2b81f8acfe0de6a52cee"),
    Pin("days-scale cohort.csv", (SIMULATE_DAYS,), "days.csv",
        "4e1f62a464e6028174ac78b6922b4534bc427a5f9010e4a06ddde032d57dbf5c"),
    Pin("days-scale fit.json", (SIMULATE_DAYS, ("fit", "days.csv", "--out", "days_fit.json")), "days_fit.json",
        "46559a7aebeb96434e8d064a9ae023d823b14ac809399753de0fb46a7dce86c0"),
    Pin("experiment_backdoor estimates.csv", (BACKDOOR_RUN,), "experiment_backdoor/estimates.csv",
        "27bcc92bf5e9aadc8bc6ccd6a24f55742863684583d35deae0c89fb5a7a54a69"),
    Pin("experiment_backdoor report.json", (BACKDOOR_RUN,), "experiment_backdoor/report.json",
        "c1d4766824693d972883875cffaa008eb259ad87cdc3cf1903ef9eec37e8e7c5"),
    Pin("experiment_frontdoor estimates.csv", (FRONTDOOR_RUN,), "experiment_frontdoor/estimates.csv",
        "f83b61e725cb79ce961b67472b093f4e0cf90ee03d3b310e7e1554656974747a"),
    Pin("experiment_frontdoor report.json", (FRONTDOOR_RUN,), "experiment_frontdoor/report.json",
        "01202987805f87f8992c90af11aeadeb5eef237ce1b5612080ccd17365300715"),
)

PINS = (*CLI_20K, *DRAW_SCM["backdoor"], *DRAW_SCM["frontdoor"], *BENCHMARK_SCALE)


class Outputs:
    """The sha256 of pinned outputs, made in one directory, work. Each
    distinct command runs once, however many pins and tests need it."""

    def __init__(self, work: Path):
        self.work = work
        self.ran = set()
        self.drawn = {}

    def argv(self, argv) -> list:
        """argv as strings, each dict written to a JSON file in work named by
        the hash of its text."""
        out = []
        for arg in argv:
            if isinstance(arg, dict):
                text = json.dumps(arg, indent=2)
                path = self.work / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
                path.write_text(text)
                arg = path.name
            out.append(str(arg))
        return out

    def sha256(self, pin: Pin) -> str:
        if isinstance(pin.command, DrawScm):
            call = pin.command
            if call not in self.drawn:
                self.drawn[call] = dict(zip(("x", "z", "u", "failure"), draw_scm(call.config, call.n, call.seed)))
            column = self.drawn[call][pin.output]
            return None if column is None else hashlib.sha256(column.tobytes()).hexdigest()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            for argv in pin.command:
                argv = self.argv(argv)
                if tuple(argv) not in self.ran:
                    assert cli.main([*argv, "--quiet"]) == 0, (pin.name, argv)
                    self.ran.add(tuple(argv))
            return hashlib.sha256(Path(pin.output).read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)


def check(pins, sha256) -> None:
    """Fail naming every pin whose output's sha256 (by sha256(pin)) differs
    from its pinned one, with toolchain_note()."""
    differ = [f"  {pin.name}: pinned {pin.sha256}, got {got}" for pin in pins if (got := sha256(pin)) != pin.sha256]
    assert not differ, "\n".join(
        [f"{len(differ)} of {len(pins)} outputs differ from their pinned digests:", *differ, toolchain_note()]
    )
