"""Code that several test modules share, each piece in one place.

Each behaviour the suite checks has one oracle, and every module that
checks the behaviour calls it: the references stand in for the code
the package replaced (the ``ref_*`` writers, ``reference_jones``,
``loop_mueller``, and ``kron_loop_probability`` with
``kron_loop_heralded_idler`` for the engine).  The random
fixtures take the caller's generator, so each test draws its own
sequence.  Also here: runs of a fresh process, and the golden cases
(``CASES``) that ``test_golden`` and ``test_cli`` both check.  No test
module imports another; what one module alone uses stays in it.
Nothing here imports scipy.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import yaml

import ghostpol
from ghostpol.discern import DistinguishabilityReport, EllipsoidRegion, FamilyOutcome
from ghostpol.polcalc import STOKES_OPS, PolElement
from ghostpol.qstate import TwoQubitDensity, save_density_csv, werner
from ghostpol.svgplot import MARGIN_B, MARGIN_L, MARGIN_T, PALETTE, _Axes, _Canvas, _fmt
from ghostpol.tomo import CANONICAL_PAIRS, TomographyRecord, projection_probability

# The directory that holds the ghostpol package under test.
SRC = os.path.dirname(os.path.dirname(ghostpol.__file__))
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")

# Source for a fresh interpreter: a sys.meta_path finder that makes every
# scipy module unimportable.
BLOCK_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked: {name}")
sys.meta_path.insert(0, NoScipy())
"""


def run_checked(argv, returncode=0, env=None) -> subprocess.CompletedProcess:
    """Run ``argv`` in ``env`` (default: this process's), check that it
    exits with ``returncode`` and return the finished process."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == returncode, proc.stderr
    return proc


def run_python(*args, returncode=0, env=None) -> subprocess.CompletedProcess:
    """``run_checked`` of ``python *args`` in a fresh interpreter that
    imports ghostpol from ``SRC``."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    return run_checked([sys.executable, *args], returncode, env)


# --- fixtures ----------------------------------------------------------------

def lp(theta):
    return PolElement("ideal_polarizer", theta)


def qwp(theta):
    return PolElement("retarder", theta, retardance_rad=np.pi / 2.0)


def random_element(rng):
    kind = rng.choice(["ideal_polarizer", "partial_polarizer", "retarder"])
    theta = float(rng.uniform(0.0, 180.0))
    if kind == "partial_polarizer":
        return PolElement(kind, theta, extinction=float(rng.uniform(1.0, 20.0)))
    if kind == "retarder":
        return PolElement(kind, theta, retardance_rad=float(rng.uniform(0.0, 2.0 * np.pi)))
    return PolElement(kind, theta)


def random_passive_jones(rng):
    g = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
    return g / (np.linalg.svd(g, compute_uv=False)[0] + 1e-12)


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitDensity(rho / np.trace(rho))


def rotation_jones(theta_deg: float) -> np.ndarray:
    """Jones rotation matrix for a frame rotation by ``theta_deg``."""
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]], dtype=complex)


def expected_records(rho: TwoQubitDensity, total_pairs: float) -> list[TomographyRecord]:
    """Noise-free records with counts = flux times probability."""
    return [
        TomographyRecord(a, b, total_pairs * projection_probability(rho, a, b))
        for a, b in CANONICAL_PAIRS
    ]


# Reference probe transfer matrix of the three-projection setup
# (quarter-wave plate at 62 deg after an ideal polarizer at 90 deg),
# frozen from the published characterization the package calibrates
# its sign conventions against.
REF_PROBE_THREE = np.array([
    [0.5000, -0.5000, 0.0, 0.0],
    [-0.1563, 0.1563, 0.0, 0.0],
    [0.2318, -0.2318, 0.0, 0.0],
    [0.4145, -0.4145, 0.0, 0.0],
])

# Same setup with the ideal polarizer replaced by a partial polarizer
# of extinction ratio 3.7.
REF_PROBE_TWO = np.array([
    [0.6351, -0.3649, 0.0, 0.0],
    [-0.1141, 0.1986, -0.2410, 0.4310],
    [0.1691, -0.2944, 0.3573, 0.2907],
    [0.3025, -0.5266, -0.2907, 0.0],
])

# Every (element kind, parameter the kind does not take) pair.
FOREIGN_PARAMETERS = [
    ("ideal_polarizer", "extinction"),
    ("ideal_polarizer", "retardance_rad"),
    ("partial_polarizer", "retardance_rad"),
    ("retarder", "extinction"),
]

# A config that sets every section.
FULL_CONFIG = """
seed: 11
runs: 4
conditional: true
state: {kind: werner, p: 0.9}
probe:
  elements:
    - {kind: retarder, angle_deg: 62.0, retardance_rad: 1.5707963267948966}
    - {kind: ideal_polarizer, angle_deg: 90.0}
projectors:
  - elements:
      - {kind: retarder, angle_deg: 170.0, retardance_rad: 1.5707963267948966}
      - {kind: ideal_polarizer, angle_deg: 7.5}
  - elements:
      - {kind: partial_polarizer, angle_deg: 110.0, extinction: 3.7}
samples:
  - {family: LP, thetas: {start: 0, stop: 180, step: 30}}
  - {family: QWP, thetas: [0, 45, 90]}
  - family: custom
    element: {kind: retarder, angle_deg: 0.0, retardance_rad: 0.5}
counting:
  pair_rate: 5000
  integration_time: 1.0
  coincidence_window: 3.0e-9
  singles_background: 20000
  drift_amplitude: 0.02
tomography:
  integration_time: 10.0
optimize:
  samples:
    - {family: LP, theta_deg: 0.0}
    - {family: LP, theta_deg: 45.0}
  projectors:
    - {qwp_deg: 170.0, lp_deg: 7.5}
    - {qwp_deg: null, lp_deg: 34.0}
  probe: {qwp_deg: 62.0, lp_deg: 90.0}
  mode: sequential
  restarts: 4
  max_evals: 200
  vary_extinction: false
"""


def random_report(rng, d):
    """Families with stats over many magnitudes and random kept flags."""
    families = []
    for name in ("LP", "QWP", "custom")[:rng.integers(1, 4)]:
        n = int(rng.integers(1, 40))
        magnitude = 10.0 ** rng.uniform(-300.0, 10.0, (3, n, d))
        mean, std, ci95 = np.where(rng.random((3, n, d)) < 0.1, 0.0, magnitude)
        mean *= rng.choice([-1.0, 1.0], (n, d))
        order = rng.permutation(n)
        n_kept, n_crossed = rng.integers(0, n + 1, 2)
        n_crossed = min(n_crossed, n - n_kept)
        families.append(FamilyOutcome(
            family=name,
            thetas=np.sort(rng.uniform(0.0, 180.0, n)),
            stats=np.array([mean, std, ci95]),
            regions=EllipsoidRegion(mean, ci95),
            kept=sorted(order[:n_kept].tolist()),
            cross_excluded=order[n_kept:n_kept + n_crossed].tolist(),
        ))
    return DistinguishabilityReport(families=families, exclusions=[])


def region_outcome(family, centers, semi_axes, kept):
    """A family outcome holding what region_panels draws: the regions
    of ``centers`` and ``semi_axes``, and the ``kept`` rows."""
    regions = EllipsoidRegion(np.asarray(centers, dtype=float), semi_axes)
    return FamilyOutcome(family, np.arange(float(len(regions.center))),
                         np.array([regions.center, regions.semi_axes,
                                   regions.semi_axes]), regions, list(kept))


def panel_dict(outcome):
    """An outcome as the dict of ref_region_panels."""
    return {"label": outcome.family, "centers": outcome.stats[0],
            "semi_axes": outcome.regions.semi_axes, "kept": outcome.kept}


# --- oracles -----------------------------------------------------------------

def reference_jones(elements):
    """Chain Jones matrix as built before the stacks: R J0 R^dagger per
    element by matrix products, multiplied up one element at a time."""
    total = np.eye(2, dtype=complex)
    for el in elements:
        if el.kind == "ideal_polarizer":
            j0 = np.diag([0.0, 1.0]).astype(complex)
        elif el.kind == "partial_polarizer":
            j0 = np.diag([1.0 / np.sqrt(el.extinction), 1.0]).astype(complex)
        else:
            j0 = np.diag([np.exp(1.0j * el.retardance_rad), 1.0])
        r = rotation_jones(el.theta_deg)
        total = r @ j0 @ r.conj().T @ total
    return total


def loop_mueller(j):
    """The per-entry jones_to_mueller that the batched one replaced."""
    m = np.empty((4, 4))
    jd = j.conj().T
    for i, si in enumerate(STOKES_OPS):
        for k, sk in enumerate(STOKES_OPS):
            m[i, k] = 0.5 * np.real(np.trace(si @ j @ sk @ jd))
    return m


def kron_loop_probability(rho, kraus, idler_jones, conditional=False):
    """The engine before the effect contraction: one 4x4 Kraus
    conjugation per Kraus operator, herald from the explicit partial
    trace of ``kron_loop_heralded_idler``."""
    j = np.asarray(idler_jones, dtype=complex)
    p = 0.0
    for k in kraus:
        big = np.kron(k, j)
        p += float(np.real(np.trace(big @ rho.matrix @ big.conj().T)))
    p = max(p, 0.0)
    if not conditional:
        return p
    _, herald = kron_loop_heralded_idler(rho, kraus)
    return p / herald


def kron_loop_heralded_idler(rho, kraus):
    """Idler state and herald probability of a Kraus set: the partial
    trace over the signal of each Kraus conjugation, summed."""
    out = np.zeros((2, 2), dtype=complex)
    for k in kraus:
        big = np.kron(k, np.eye(2, dtype=complex))
        joint = big @ rho.matrix @ big.conj().T
        out += np.trace(joint.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    out = 0.5 * (out + out.conj().T)
    return out, float(np.real(np.trace(out)))


def exact_cells(counts):
    """A column of counts as text: as integers when every count is whole,
    not negative and below 2**53, so that each reads back; else %.9g."""
    if all(math.isfinite(c) and math.copysign(1.0, c) > 0.0 and c < 2.0 ** 53
           and c == int(c) for c in counts):
        return [str(int(c)) for c in counts]
    return [f"{c:.9g}" for c in counts]


def ref_runset_to_csv(runs, corrected, path):
    """The per-cell f-string writer that the vectorised runset_to_csv
    replaced; each run's raw counts print by ``exact_cells``."""
    lines = ["run,theta_deg,projector_index,raw,corrected"]
    n_runs, n_theta, n_proj = runs.counts.shape
    for r in range(n_runs):
        raw = iter(exact_cells(runs.counts[r].ravel().tolist()))
        for t in range(n_theta):
            for j in range(n_proj):
                lines.append(f"{r},{runs.thetas[t]:.6g},{j},"
                             f"{next(raw)},{corrected[r, t, j]:.9g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_report_to_csv(report, path):
    """The row-by-row writer that the one-pass report_to_csv replaced."""
    n_axes = report.families[0].stats.shape[2] if report.families else 0
    header = ["family", "theta_deg", "kept", "cross_excluded"]
    header += [f"mean{k + 1}" for k in range(n_axes)]
    header += [f"std{k + 1}" for k in range(n_axes)]
    header += [f"ci95_{k + 1}" for k in range(n_axes)]
    lines = [",".join(header)]
    for outcome in report.families:
        kept = set(outcome.kept)
        crossed = set(outcome.cross_excluded)
        for t in range(outcome.thetas.size):
            cells = [
                outcome.family,
                f"{outcome.thetas[t]:.6g}",
                "1" if t in kept else "0",
                "1" if t in crossed else "0",
            ]
            for stat in outcome.stats:  # mean, std, ci95
                cells += [f"{v:.9g}" for v in stat[t]]
            lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_region_panels(families, axis_pairs, axis_names, title, panel=300.0):
    """The per-ellipse loop that region_panels replaced."""
    width = MARGIN_L + len(axis_pairs) * (panel + 24.0)
    canvas = _Canvas(width, panel + MARGIN_T + MARGIN_B)
    canvas.text(width / 2.0, 16.0, title, size=13.0)
    for p, (ix, iy) in enumerate(axis_pairs):
        box_x = MARGIN_L + p * (panel + 24.0)
        axes = _Axes(canvas, (box_x, MARGIN_T, panel, panel),
                     (-0.05, 1.05), (-0.05, 1.05))
        axes.frame(axis_names[ix], axis_names[iy], xticks=[0.0, 0.5, 1.0])
        for f, fam in enumerate(families):
            color = PALETTE[f % len(PALETTE)]
            kept = set(fam["kept"])
            centers, semis = fam["centers"], fam["semi_axes"]
            for i in range(centers.shape[0]):
                cx, cy = axes.px(centers[i, ix]), axes.py(centers[i, iy])
                rx = max(semis[i, ix] / 1.1 * panel, 1.0)
                ry = max(semis[i, iy] / 1.1 * panel, 1.0)
                fill = color if i in kept else "none"
                canvas.parts.append(
                    f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" rx="{_fmt(rx)}" '
                    f'ry="{_fmt(ry)}" fill="{fill}" fill-opacity="0.35" '
                    f'stroke="{color}" stroke-width="1.00"/>'
                )
            canvas.text(box_x + 8.0, MARGIN_T - 6.0 + 12.0 * f,
                        fam["label"], size=10.0, anchor="start", color=color)
    return canvas.to_string()


# --- golden cases ------------------------------------------------------------

FROZEN_WITH = {"numpy": "2.4.6"}


def installed_versions():
    return {"numpy": np.__version__}


# Each edit changes the parsed config in place; ``where`` is the
# directory the config is written to, for a file it names.
def fine_grid(cfg, where):
    for spec in cfg["samples"]:
        spec["thetas"] = {"start": 0, "stop": 180, "step": 0.25}


def one_restart(cfg, where):
    cfg["optimize"].update(restarts=1, max_evals=1500)


def noiseless(cfg, where):
    del cfg["counting"]


def bright(cfg, where):
    # Raw counts straddle 1e9 in both families, where %.9g would drop
    # digits.  Set here: PyYAML reads 3.0e9 without a sign in the
    # exponent as a string.
    cfg["counting"]["pair_rate"] = 3.0e9


def bright_tomo(cfg, where):
    # 13 of the 16 counts are above 1e9 (H,V is 2,400,028,767).
    cfg["counting"]["pair_rate"] = 5.0e9


def conditional(cfg, where):
    cfg["conditional"] = True


def custom_family(cfg, where):
    # A custom retarder family beside LP, both on list-form thetas.
    cfg["samples"] = [
        {"family": family, **extra, "thetas": [0.0, 10.0, 47.5, 90.0, 133.0]}
        for family, extra in (("LP", {}), ("custom", {"element": {
            "kind": "retarder", "angle_deg": 0.0, "retardance_rad": 1.1}}))]


def matrix_state(cfg, where):
    # The state read from a density CSV beside the config.
    save_density_csv(werner(0.9), str(where / "rho.csv"))
    cfg["state"] = {"kind": "matrix_csv", "matrix_csv": "rho.csv"}


def short_search(cfg, where):
    cfg["optimize"].update(restarts=2, max_evals=400)


def sequential_extinction(cfg, where):
    # Bare-polarizer and polarizer-first projectors, extinctions varied.
    short_search(cfg, where)
    cfg["optimize"].update(mode="sequential", vary_extinction=True, projectors=[
        {"lp_deg": 7.5, "extinction": 50.0},
        {"qwp_deg": 18.0, "lp_deg": 110.0, "qwp_first": False},
        {"qwp_deg": 45.0, "lp_deg": 34.0}])


def no_probe(cfg, where):
    short_search(cfg, where)
    del cfg["optimize"]["probe"]


def fixed_probe(cfg, where):
    short_search(cfg, where)
    cfg["optimize"]["vary_probe"] = False


# id -> (command, shipped config, edit, --seed or None, digests).
# Frozen from the code before discern held stacked regions; every
# discriminate and sweep digest equals the one listed in CHANGES.md
# for the per-run count streams.
CASES = {
    "discriminate-three_projection": (
        "discriminate", "three_projection", None, 7, {
            "regions.svg":
                "d0ec3623a3e57bfcd1afed6a72ed14af7d959f5e126fb9275af9738539de5f72",
            "report.csv":
                "90be77ac805d6cb61e441eef5a718ff8d21a2df83ace1eee381931329fdda028",
            "runs_LP.csv":
                "0638daab1910a93b6e6be4a4c6f745f5d4fdbd8de55da99108453d6273baa82d",
            "runs_QWP.csv":
                "14ede10b13f25176c2be650d44b1e7f333b00cc7d5e1d02cf204e2a56159532d",
            "stdout":
                "5e2500230ca1765689785d6dd7d12c4b221c363e04f9819796b9596b4a013afe",
            "summary.txt":
                "5e2500230ca1765689785d6dd7d12c4b221c363e04f9819796b9596b4a013afe",
        }),
    "discriminate-two_projection_partial": (
        "discriminate", "two_projection_partial", None, 7, {
            "regions.svg":
                "19229be6fadd43ec30de0d641c43e7911584dd76eac41e04c7f1c33b44a5009e",
            "report.csv":
                "f458b2ae32ea4a0a3e135595e94da10f9abd1ac9854fb1fad5b05b88cc6ebdd8",
            "runs_LP.csv":
                "c94767e94c321d20ac52a548320a6b21bcb15b3144b70103e67e065d6f544cd9",
            "runs_QWP.csv":
                "31ea4dcb9aaf020cc09a414f2dcf01dde71ff726800a3b1905adff62bea3fe01",
            "stdout":
                "7b268c1724e70a764c1b3cd37afa3780f6236a5224d30ff807ee6cbb78955885",
            "summary.txt":
                "7b268c1724e70a764c1b3cd37afa3780f6236a5224d30ff807ee6cbb78955885",
        }),
    "discriminate-fine-grid": (
        "discriminate", "three_projection", fine_grid, 1, {
            "regions.svg":
                "75b3b1e5b64ccca415c855b31538fb443954e350015627897aa30169a10412c6",
            "report.csv":
                "dcab40f78d6dcc2c2f0c0252982251e7f565220364f2a7c6f4887640aa673b52",
            "runs_LP.csv":
                "95b8c937160cb119dcbb72341daba2f228c40f7c18ea1083a1a71809ef7fa8c0",
            "runs_QWP.csv":
                "b7f7706111e4561e458c3ea57699c0739d8450211aef0f16e783f837665fe84f",
            "stdout":
                "e9ca573f98ebe91e27534d6d781e35c84c20b5ae17e512d3f47223cb31085097",
            "summary.txt":
                "e9ca573f98ebe91e27534d6d781e35c84c20b5ae17e512d3f47223cb31085097",
        }),
    "sweep-three_projection": (
        "sweep", "three_projection", None, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "24ab77fa6b8102dd4403f9d65d2df3a89cd3fe7aa3028e1deba946aac7f6a4cb",
            "sweep_LP.svg":
                "a47be3ac28899866ca1eead170235ca63488ed9030154f12b62e250fba207a86",
            "sweep_QWP.csv":
                "991bc5d416c8dbebb6aeed3210e2f7be1b8678d4258f25a48155c05f4e45a54d",
            "sweep_QWP.svg":
                "7bd57c197dc51732994f39af4d1c969cd9cf538d6288c8e3b07e5c76da5f7f2f",
        }),
    "sweep-two_projection_partial": (
        "sweep", "two_projection_partial", None, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "b164eff936709313d4c2cd7e05787603a97759fd74fd9a5cd4894a04d7b94087",
            "sweep_LP.svg":
                "63422421e7f1205477c2165e09b83b91a2452054d1ee9c720d3cbdb397fe43b6",
            "sweep_QWP.csv":
                "53a2bee0e33e4165f42e755c7aa952736badf73ff05ce3d8a222aac70f3cf6b3",
            "sweep_QWP.svg":
                "1bd0eae03668fbe492850803499386170b1f90c168cd9c8facfcdeda18e9b599",
        }),
    # Exact probabilities: no counting section, so no runs and no bands.
    "sweep-noiseless": (
        "sweep", "three_projection", noiseless, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "2d69564b3d5beb549009e7d22eaedc89a3717c49828ce32987f8b856e4daf59c",
            "sweep_LP.svg":
                "088908791b4fe4c7fcdfcebd5df2f4f96d8c55785933e4557e23cf5ada6aed1c",
            "sweep_QWP.csv":
                "fd8aca4131c35a2627b1f71414720643e62d78044bb2d4133dce88cf844f5295",
            "sweep_QWP.svg":
                "27a39b3c7f7a69b18df6813478ed3a3eaacb264538ca0642609b27693c832585",
        }),
    # 95 LP and 793 QWP of 2,160 raw counts are >= 1e9; the runs CSVs
    # were re-frozen when they came to print as integers.
    "discriminate-bright": (
        "discriminate", "three_projection", bright, None, {
            "regions.svg":
                "a25fd2ed3660a6f2cbbbe404f12e55285b3c7f3eef9af3e9adad3f28762d2e59",
            "report.csv":
                "16b6edc0351856e4623411b99ed9feae8bc45903535d729245942bda887daddc",
            "runs_LP.csv":
                "eba28603c6f94936050da7de39a3e4faca362109287d9921660cd658efd837f6",
            "runs_QWP.csv":
                "9b397bdc14c5be8dbf77438e5ac015e0821e48c2f350e5d9ddfbef1f265c81b5",
            "stdout":
                "98cd2219780067f27fb08c427f121dce15a48caea7c940ea7850cb495bb767cc",
            "summary.txt":
                "98cd2219780067f27fb08c427f121dce15a48caea7c940ea7850cb495bb767cc",
        }),
    # rho.csv, metrics.txt and stdout frozen from the BFGS fit, which
    # gives the same bytes under every BLAS kernel.
    "tomo-tomography": (
        "tomo", "tomography", None, None, {
            "metrics.txt":
                "a61581d5416ae48d1979a057eb5261d126949e6fd2f5eabe0cebd32d2f90e275",
            "records.csv":
                "8bb53c2562c11425bec32600f42430947eadf726ea04951817eaa46232b99e38",
            "rho.csv":
                "38c155d3947a2528e5a6328d13c8e23a5c7fcaaeb1094fdaf6196c0fa97852d4",
            "stdout":
                "a61581d5416ae48d1979a057eb5261d126949e6fd2f5eabe0cebd32d2f90e275",
        }),
    # Counts above 1e9 in records.csv, printed as integers; frozen
    # after they were, and equal under every BLAS kernel.
    "tomo-bright": (
        "tomo", "tomography", bright_tomo, None, {
            "metrics.txt":
                "648e9c652dead706f0f2308bd2cd62ffc1cfe74e2b423d8cd9172428d3b578d8",
            "records.csv":
                "5ae82ba05fbdd577286589a5597c6dc6a1fc9887355fde22136014b958d1781c",
            "rho.csv":
                "27941ebefc029ae4abdd0d0788320d0a233d15244028cab5e2206339273d3d69",
            "stdout":
                "648e9c652dead706f0f2308bd2cd62ffc1cfe74e2b423d8cd9172428d3b578d8",
        }),
    # The full shipped search: all 8 restarts.
    "optimize-optimize": (
        "optimize", "optimize", None, None, {
            "best_params.yaml":
                "2fe39c795e15a1b89f555950f865c63c8eb660d7268b70e151fc5d59e90947db",
            "stdout":
                "e98eb875de268e1dde64ced0240bd901aa8d063f923d9b25b382a3c71ea1f3d7",
            "trace.csv":
                "0dedd120cc41ba1e38e23c687c94defe19d8e18bf2d24e9415381a60bf9a5a0a",
        }),
    "optimize-one-restart": (
        "optimize", "optimize", one_restart, None, {
            "best_params.yaml":
                "a373a590a5f53dfe66d6a79ce73d766c72163d696ed55b75e62a3aaedf5e28aa",
            "stdout":
                "7e91305447af320cc48f8de9b06a1fe6bab839d876aeee8d9a8dd84502782009",
            "trace.csv":
                "a6a1c1030eae5e16992a9e39b8171932474373f2b011fb80fae7b4f5766e9fae",
        }),
    # The cases below pin each config branch that no shipped config
    # reaches; frozen under the default, Prescott and Haswell kernels.
    # Herald-conditioned probabilities, with counting.
    "sweep-conditional": (
        "sweep", "three_projection", conditional, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "bc647f2cfd2eb069c595630071b2561e172b6c64b0f8dd92536aa93b61bd13a2",
            "sweep_LP.svg":
                "512063803f1e70212f6893c8afcd2be9ded49bb20163d16ce3b3d82f5b040fa3",
            "sweep_QWP.csv":
                "a955a4e374b4eb41170634820527ad6970ab593abe752358b91c4fed409a5813",
            "sweep_QWP.svg":
                "21cb151f9b55c227579f2093acb649aab9bad350dae899f625f33a5e2e12ab38",
        }),
    "discriminate-conditional": (
        "discriminate", "three_projection", conditional, None, {
            "regions.svg":
                "7ee6e0a0bcb2a5e98fddc52d4f6708e3c86e23c3becb8d95d0f85d86f0b4a0fa",
            "report.csv":
                "b0d872335640972301b582d2a399108b4e0cc266323ade26ac26c02c807f275c",
            "runs_LP.csv":
                "9ffdb3deb61dee00e00748fb09349f8794e0c42247e9274f85c1746c72a7a4e6",
            "runs_QWP.csv":
                "98e125c9af45b8061535a2ee38ae1d8a4e3e0f2171b0b8fb47c60e12203c8322",
            "stdout":
                "d648c439d3406d9f7170b5c4ed7d610ca0579e87cfe48ecaa23ff3f1ec25c404",
            "summary.txt":
                "d648c439d3406d9f7170b5c4ed7d610ca0579e87cfe48ecaa23ff3f1ec25c404",
        }),
    "discriminate-custom": (
        "discriminate", "three_projection", custom_family, None, {
            "regions.svg":
                "14494177fc16409df333dac2b581d9f20b148a99d730635b897b57dc599a09b8",
            "report.csv":
                "53a33a8ac21ece6b37637ede38752e346ca4e1200a7f464c4bd695ac37012b06",
            "runs_LP.csv":
                "d909d968fc5f1eb6ad663f3c9702b9819438f1a9a377264e6db40033698c1c6c",
            "runs_custom.csv":
                "7240176245d5aab5b83f98b83b1b73f9aec205bdc6a8a0d6d3cc342e3aceb05d",
            "stdout":
                "aa659bb6b8b17982ac494afaea25b3f0a1f7a4de487fabdaaae071f81eb6c597",
            "summary.txt":
                "aa659bb6b8b17982ac494afaea25b3f0a1f7a4de487fabdaaae071f81eb6c597",
        }),
    # The state read from a werner(0.9) density CSV.
    "sweep-matrix_csv": (
        "sweep", "two_projection_partial", matrix_state, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "8531c7e92f7b60d58963724515bcd39ee7b8ad064caa3c295c24dbbe52dbf85f",
            "sweep_LP.svg":
                "7d392f7542106a3ce1d1a35ac40b61bc8fa23ef05b7b82b4d7a4dc55d91f7b6d",
            "sweep_QWP.csv":
                "2ade25b4043a6960656af0d73d4e91a916a6816fa47df23016e09eaf6bf78a79",
            "sweep_QWP.svg":
                "96ff37801eb4c641820926fb30e4aafc5cab28c8b1cf88a8d2398ce53ecbc223",
        }),
    # Two restarts sharing 400 evaluations, as in the two cases below.
    "optimize-sequential-extinction": (
        "optimize", "optimize", sequential_extinction, None, {
            "best_params.yaml":
                "45fa9bd3f5a11841e33747dd4cc092f3f1fab89f951224899391a1e6878fba34",
            "stdout":
                "b8f7f94e8f35fe1b48dac5ca007f6e804ef305359be13ed30eb1212cdd4f9ab9",
            "trace.csv":
                "b3524fad4b777a024752ae5bba1136998d02a257d4729700d65ae802e12816ec",
        }),
    "optimize-no-probe": (
        "optimize", "optimize", no_probe, None, {
            "best_params.yaml":
                "29d4c125880b5c56cb3fbe543b227bdffe0a7ccb5991a58590c4540ca49ae2ee",
            "stdout":
                "d63be3db4358b8e634a8318f2119b5ddf64872b42998325eb5dd329ce6b48335",
            "trace.csv":
                "2d8cd0c7c084ea4c763e4b0383dbda26bf5d0dba8c5f4f837e31984b38c51cd1",
        }),
    "optimize-fixed-probe": (
        "optimize", "optimize", fixed_probe, None, {
            "best_params.yaml":
                "aa5ea6ad8b18045ca5b683dd31c9fd5763fc4a5b0bab0b95b1538a6b96eec22a",
            "stdout":
                "77d1f526066e22298f580365e2792b34ca1450c1923272eb582e5578eef0c7cf",
            "trace.csv":
                "f04c1cc3eb8cbde904b1dbc4b2eea5e5e5ddf10f9aff563d51c4b441b2cb0c3b",
        }),
}


def case_argv(case_id, tmp_path):
    """Command line of one case, its config written to ``tmp_path`` and
    its outputs going to ``tmp_path / "out"``."""
    command, name, edit, seed, _ = CASES[case_id]
    with open(os.path.join(CONFIGS, f"{name}.yaml"), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if edit is not None:
        edit(cfg, tmp_path)
    config = tmp_path / f"{name}.yaml"
    config.write_text(yaml.safe_dump(cfg, sort_keys=False))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def output_digests(stdout, out):
    """Digests of stdout (key ``stdout``) and of every file in ``out``."""
    digests = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    for path in sorted(out.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests
