"""Output checks of the benchmark, computed apart from skinlab.

Every reference is built here from the model parameters with numpy and
scipy alone: the operators H and P, the master generator (dense or sparse),
the closed-form commuting spectrum, the dephased stationary entropy and the
bulk k-sum.  The checks also test properties the method must have: trace
identities, conjugation symmetry, Hermiticity, monotone entropy under a
unital generator.  No check compares against a stored copy of earlier
output.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import expm_multiply

SPECTRUM_TOL = 1e-8     # eigenvalue identities, Re(lambda) <= tol, kernel count
STATE_TOL = 1e-7        # dense spectral propagation vs expm_multiply
RK4_TOL = 1e-7          # fixed-step RK4 (dt = 0.002) vs expm_multiply
NORM_DRIFT_MAX = 1e-9
ENSEMBLE_SIGMAS = 5.0

# Column lists as documented in docs/experiments.md.
COLUMNS = {
    "pbc": ["k", "re_E", "im_E"],
    "obc": ["index", "re_E", "im_E", "mean_position"],
    "density": ["n", "m", "re", "im", "abs"],
    "timeseries": ["t", "entropy", "purity", "first_moment"],
    "spectrum": ["re", "im"],
    "drift": ["t", "master_first_moment", "semiclassical_first_moment"],
}


class CheckError(Exception):
    """An experiment's output failed a check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- reading

def read_csv(path: Path, columns: list[str], n_rows: int) -> np.ndarray:
    """Numeric body of a skinlab CSV after checking its header and row count."""
    lines = Path(path).read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    header = [line for line in lines if line.startswith("# columns: ")]
    require(header == ["# columns: " + ",".join(columns)],
            f"{path.name}: header columns {header} != {columns}")
    require(body[0].split(",") == columns, f"{path.name}: column line {body[0]!r}")
    require(len(body) - 1 == n_rows, f"{path.name}: {len(body) - 1} rows, expected {n_rows}")
    data = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    require(data.shape == (n_rows, len(columns)), f"{path.name}: ragged rows")
    require(bool(np.isfinite(data).all()), f"{path.name}: non-finite cell")
    return data


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def density_matrix(data: np.ndarray) -> np.ndarray:
    """Square matrix from (n, m, re, im, abs) rows scanned row-major."""
    side = math.isqrt(data.shape[0])
    rho = (data[:, 2] + 1j * data[:, 3]).reshape(side, side)
    require(bool(np.allclose(np.abs(rho).ravel(), data[:, 4], rtol=1e-12, atol=1e-15)),
            "abs column disagrees with re, im")
    return rho


# -------------------------------------------------------------- operators

def cosine_operators(J: float, T: float, R: float, phi: float, n: int):
    """H, P of the cosine model on n sites, from <n|X|n'> = c_(n - n')."""
    H = J * (np.eye(n, k=1) + np.eye(n, k=-1)) + T * (np.eye(n, k=2) + np.eye(n, k=-2))
    P = (R * np.eye(n) + 0.5 * R * np.exp(-1j * phi) * np.eye(n, k=-1)
         + 0.5 * R * np.exp(1j * phi) * np.eye(n, k=1))
    return H.astype(complex), P


def hatano_nelson_operators(J1: float, J2: float, n: int):
    """H and the PSD square root P of the tridiagonal P^2 of the asymmetric chain."""
    g = J2 - J1
    H = 0.5 * (J1 + J2) * (np.eye(n, k=1) + np.eye(n, k=-1)).astype(complex)
    P2 = 2 * g * np.eye(n) - 1j * g * np.eye(n, k=1) + 1j * g * np.eye(n, k=-1)
    w, V = np.linalg.eigh(P2)
    P = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    return H, 0.5 * (P + P.conj().T)


def operators(model: dict, n: int, phi: float | None = None):
    if model["type"] == "hatano_nelson":
        return hatano_nelson_operators(model["J1"], model["J2"], n)
    use_phi = model["phi"] if phi is None else phi
    return cosine_operators(model["J"], model["T"], model["R"], use_phi, n)


def generator(H: np.ndarray, P: np.ndarray) -> sp.csr_matrix:
    """Sparse master generator on column-stacked vec(rho): vec(AXB) = (B^T kron A) vec(X)."""
    n = H.shape[0]
    eye = sp.identity(n, dtype=complex, format="csr")
    H, P = sp.csr_matrix(H), sp.csr_matrix(P)
    P2 = P @ P
    L = (-1j * (sp.kron(eye, H) - sp.kron(H.T, eye))
         - 0.5 * (sp.kron(eye, P2) + sp.kron(P2.T, eye))
         + sp.kron(P.T, P))
    return L.tocsr()


def master_rhs(H: np.ndarray, P: np.ndarray, rho: np.ndarray) -> np.ndarray:
    P2 = P @ P
    return -1j * (H @ rho - rho @ H) - 0.5 * (P2 @ rho + rho @ P2) + P @ rho @ P


def generator_trace(P: np.ndarray) -> complex:
    """tr L = -N tr P^2 + |tr P|^2 for the collective-jump generator."""
    n = P.shape[0]
    return -n * np.trace(P @ P).real + abs(np.trace(P)) ** 2


def site_state(n: int, site: int) -> np.ndarray:
    rho = np.zeros((n, n), dtype=complex)
    rho[site - 1, site - 1] = 1.0
    return rho


def master_states(H, P, rho0: np.ndarray, times) -> list[np.ndarray]:
    """exp(L t) rho0 at increasing times, stepped with expm_multiply.

    A long-range P (Hatano-Nelson) would make the jump term P^T kron P dense;
    then L is built in the eigenbasis of P, where both jump terms are
    diagonal and only the H terms (2 N^3 entries) are stored.
    """
    n = rho0.shape[0]
    U = np.eye(n)
    nnz = np.count_nonzero
    if 2 * n * (nnz(H) + nnz(P @ P)) + nnz(P) ** 2 > 2 * n**3 + n:
        p, U = np.linalg.eigh(P)
        H, P = U.conj().T @ H @ U, np.diag(p).astype(complex)
    L = generator(H, P)
    v, t_prev, out = (U.conj().T @ rho0 @ U).reshape(-1, order="F"), 0.0, []
    for t in times:
        if t > t_prev:
            v = expm_multiply(L * (t - t_prev), v)
        out.append(U @ v.reshape((n, n), order="F") @ U.conj().T)
        t_prev = t
    return out


def entropy(rho: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)), 0.0, 1.0)
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def matched_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Worst pairing distance of the optimal one-to-one matching of two multisets."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ------------------------------------------------------------ properties

def check_spectrum(path: Path, P: np.ndarray, kernel_dim: int) -> np.ndarray:
    """Generator spectrum: size, trace identity, Re <= 0, conjugation symmetry, kernel."""
    n = P.shape[0]
    data = read_csv(path, COLUMNS["spectrum"], n * n)
    w = data[:, 0] + 1j * data[:, 1]
    scale = max(1.0, float(np.abs(w).sum()))
    trace_err = abs(w.sum() - generator_trace(P))
    require(trace_err <= SPECTRUM_TOL * scale, f"spectrum sum misses tr L by {trace_err:.3e}")
    require(float(w.real.max()) <= SPECTRUM_TOL, f"eigenvalue with Re = {w.real.max():.3e} > 0")
    conj_err = matched_distance(w, w.conj())
    require(conj_err <= SPECTRUM_TOL, f"spectrum not conjugation-symmetric ({conj_err:.3e})")
    zeros = int((np.abs(w) <= SPECTRUM_TOL).sum())
    require(zeros == kernel_dim, f"{zeros} zero eigenvalues, expected {kernel_dim}")
    return w


def commuting_spectrum(J: float, R: float, n: int) -> np.ndarray:
    """i (E_b - E_a) - (p_a - p_b)^2 / 2 over all sine-mode pairs (a, b)."""
    c = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    E, p = 2 * J * c, R * (1 + c)
    return (1j * (E[None, :] - E[:, None]) - 0.5 * (p[:, None] - p[None, :]) ** 2).ravel()


def cosine_bands(model: dict, k: np.ndarray, phi: float):
    """H(k) = 2J cos k + 2T cos 2k and P(k) = R [1 + cos(k + phi)]."""
    h = 2 * model["J"] * np.cos(k) + 2 * model["T"] * np.cos(2 * k)
    return h, model["R"] * (1 + np.cos(k + phi))


def bulk_cells(model: dict, n_k: int, t: float, sites: np.ndarray, cells) -> list[complex]:
    """rho_(n,m)(t) of the site-0 excitation as a direct double k-sum of the bulk multiplier."""
    k = -np.pi + 2 * np.pi * np.arange(n_k) / n_k
    h, p = cosine_bands(model, k, model["phi"])
    E = np.exp(1j * (h[None, :] - h[:, None]) * t - 0.5 * (p[None, :] - p[:, None]) ** 2 * t)
    return [np.exp(1j * k * sites[a]) @ E @ np.exp(-1j * k * sites[b]) / n_k ** 2
            for a, b in cells]


def dephased_entropy(n: int, site: int) -> float:
    """Entropy of a site state dephased in the open-chain sine modes."""
    alpha = np.arange(1, n + 1)
    w = 2.0 / (n + 1) * np.sin(np.pi * site * alpha / (n + 1)) ** 2
    w = w[w > 1e-300]
    return float(-(w * np.log(w)).sum())


def check_timeseries(data: np.ndarray, times, states, tol: float) -> None:
    """t, entropy, purity, first moment against reference states; entropy non-decreasing."""
    require(bool(np.array_equal(data[:, 0], np.asarray(times, dtype=float))), "time column")
    sites = np.arange(1, states[0].shape[0] + 1)
    ref = np.array([[entropy(r), np.trace(r @ r).real, float(sites @ np.diag(r).real)]
                    for r in states])
    err = float(np.abs(data[:, 1:] - ref).max())
    require(err <= tol, f"entropy/purity/moment off the reference by {err:.3e}")
    require(bool(np.all(np.diff(data[:, 1]) >= -1e-10)),
            "entropy decreases under a unital generator")


def check_frames(path: Path, times, states, tol: float) -> None:
    frames = read_json(path)["frames"]
    require(len(frames) == len(times), f"{len(frames)} frames, expected {len(times)}")
    for frame, t, ref in zip(frames, times, states):
        require(frame["time"] == t, f"frame time {frame['time']} != {t}")
        err = float(np.abs(np.asarray(frame["abs"]) - np.abs(ref)).max())
        require(err <= tol, f"|rho| frame at t={t} off the reference by {err:.3e}")


# ------------------------------------------------------------ experiments

class Checker:
    """Checks experiment outputs; caches references shared by repeated passes."""

    def __init__(self):
        self._refs: dict[str, object] = {}
        self._bytes: dict[str, bytes] = {}

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def check(self, cfg: dict, outdir: Path, expect: dict) -> None:
        getattr(self, "_" + cfg["experiment"])(cfg, Path(outdir), expect)

    def _states(self, cfg: dict, times):
        n = cfg["n_sites"]
        site = cfg.get("rho0_site", (n + 1) // 2)
        H, P = operators(cfg["model"], n)
        key = json.dumps([cfg["model"], n, site, list(times)])
        return self._ref(key, lambda: master_states(H, P, site_state(n, site), times))

    def _Spectra(self, cfg, outdir, expect):
        n, n_k = cfg["n_sites"], cfg.get("n_k", 512)
        summary = read_json(outdir / "summary.json")
        for i, (phi, panel) in enumerate(zip(cfg["model"]["phi"], summary["panels"])):
            pbc = read_csv(outdir / f"pbc_phi{i}.csv", COLUMNS["pbc"], n_k)
            k = pbc[:, 0]
            require(bool(np.allclose(k, -np.pi + 2 * np.pi * np.arange(n_k) / n_k,
                                     rtol=0, atol=1e-14)), "pbc momentum grid")
            h, p = cosine_bands(cfg["model"], k, phi)
            err = float(np.abs(pbc[:, 1] + 1j * pbc[:, 2] - (h - 0.5j * p ** 2)).max())
            require(err <= 1e-12, f"pbc curve phi{i} off H(k) - i P(k)^2 / 2 by {err:.3e}")
            obc = read_csv(outdir / f"obc_phi{i}.csv", COLUMNS["obc"], n)
            H, P = operators(cfg["model"], n, phi)
            trace_err = abs((obc[:, 1] + 1j * obc[:, 2]).sum() - np.trace(H - 0.5j * P @ P))
            require(trace_err <= 1e-9 * n,
                    f"obc spectrum phi{i} misses tr H_eff by {trace_err:.3e}")
            require(bool(np.all((obc[:, 3] >= 1) & (obc[:, 3] <= n))),
                    "mean position outside the chain")
            skin = abs(panel["skin_localization"])   # skinlab reports it signed
            if abs(math.sin(phi)) < 1e-12:            # P(-k) = P(k): no edge condensation
                require(skin < 0.05, f"skin localisation {skin:.3f} at phi={phi}")
            else:
                require(skin > 0.3, f"skin localisation only {skin:.3f} at phi={phi}")

    def _BulkRelax(self, cfg, outdir, expect):
        lo, hi = cfg["window"]
        n_k, m = cfg["n_k"], cfg["model"]
        side = hi - lo + 1
        sites = np.arange(lo, hi + 1)
        frames = read_json(outdir / "frames.json")["frames"]
        require(len(frames) == len(cfg["times"]), "frames.json frame count")
        for i, t in enumerate(cfg["times"]):
            data = read_csv(outdir / f"density_t{i}.csv", COLUMNS["density"], side * side)
            require(bool(np.array_equal(data[:, 0], np.repeat(sites, side))
                         and np.array_equal(data[:, 1], np.tile(sites, side))), "site columns")
            rho = density_matrix(data)
            key = ("bulk", json.dumps(cfg, sort_keys=True), t, tuple(map(tuple, expect["cells"])))
            refs = self._ref(key, lambda: bulk_cells(m, n_k, t, sites, expect["cells"]))
            for (a, b), ref in zip(expect["cells"], refs):
                err = abs(rho[a, b] - ref)
                require(err <= 1e-12, f"density_t{i} cell ({sites[a]}, {sites[b]}) "
                                      f"off the k-sum by {err:.3e}")

    def _ObcRelax(self, cfg, outdir, expect):
        times = cfg["times"]
        states = self._states(cfg, times)
        tol = STATE_TOL if cfg["n_sites"] <= 32 else RK4_TOL
        data = read_csv(outdir / "timeseries.csv", COLUMNS["timeseries"], len(times))
        check_timeseries(data, times, states, tol)
        check_frames(outdir / "frames.json", times, states, tol)

    def _HatanoNelson(self, cfg, outdir, expect):
        self._ObcRelax(cfg, outdir, expect)
        if cfg.get("include_spectrum", True):
            _, P = operators(cfg["model"], cfg["n_sites"])
            check_spectrum(outdir / "spectrum.csv", P, expect["kernel_dim"])

    def _LiouvillianSpectrum(self, cfg, outdir, expect):
        n, model = cfg["n_sites"], cfg["model"]
        H, P = operators(model, n)
        w = check_spectrum(outdir / "spectrum.csv", P, expect["kernel_dim"])
        if expect.get("commuting"):
            err = matched_distance(w, commuting_spectrum(model["J"], model["R"], n))
            require(err <= SPECTRUM_TOL, f"spectrum off the commuting closed form by {err:.3e}")
        report = read_json(outdir / "stationary.json")
        require(report["zero_eigenvalue_multiplicity"] == expect["kernel_dim"],
                f"kernel multiplicity {report['zero_eigenvalue_multiplicity']}, "
                f"expected {expect['kernel_dim']}")
        basis = report["kernel_basis"]
        require(len(basis) == expect["kernel_dim"], f"{len(basis)} kernel basis elements")
        for K in basis:
            K = np.asarray(K["re"]) + 1j * np.asarray(K["im"])
            require(float(np.abs(K - K.conj().T).max()) <= 1e-10, "kernel element not Hermitian")
            res = float(np.linalg.norm(master_rhs(H, P, K))) / float(np.linalg.norm(K))
            require(res <= SPECTRUM_TOL, f"kernel element has master residual {res:.3e}")

    def _EntropyTrace(self, cfg, outdir, expect):
        n, times = cfg["n_sites"], cfg["times"]
        data = read_csv(outdir / "entropy.csv", COLUMNS["timeseries"], len(times))
        check_timeseries(data, times, self._states(cfg, times), STATE_TOL)
        summary = read_json(outdir / "summary.json")
        s_inf = dephased_entropy(n, cfg["rho0_site"]) if expect.get("commuting") else math.log(n)
        require(abs(summary["s_infinity"] - s_inf) <= 1e-8,
                f"s_infinity {summary['s_infinity']:.12f}, expected {s_inf:.12f}")
        require(abs(summary["max_entropy"] - math.log(n)) <= 1e-12, "max_entropy != ln N")
        require(f"s_infinity={summary['s_infinity']!r}" in (outdir / "entropy.csv").read_text(),
                "entropy.csv header does not carry s_infinity")

    def _Trajectories(self, cfg, outdir, expect):
        n = cfg["n_sites"]
        summary = read_json(outdir / "ensemble.json")
        require(summary["seed"] == cfg["master_seed"] and summary["n_traj"] == cfg["n_traj"],
                "ensemble.json seed or n_traj differs from the config")
        drift = summary["max_norm_drift"]
        require(drift < NORM_DRIFT_MAX, f"norm drift {drift:.3e} >= {NORM_DRIFT_MAX:.0e}")
        csv_path = outdir / "rho_estimate.csv"
        rho = density_matrix(read_csv(csv_path, COLUMNS["density"], n * n))
        require(float(np.abs(rho - rho.conj().T).max()) <= 1e-12, "rho estimate not Hermitian")
        require(abs(np.trace(rho) - 1.0) <= 1e-9, f"rho estimate trace {np.trace(rho)}")
        H, P = operators(cfg["model"], n)

        def exact():
            rho0 = site_state(n, cfg["rho0_site"]).reshape(-1, order="F")
            v = scipy.linalg.expm(generator(H, P).toarray() * cfg["t_final"]) @ rho0
            return v.reshape((n, n), order="F")

        err = float(np.linalg.norm(rho - self._ref(("exact", json.dumps(cfg)), exact)))
        se = summary["standard_error"]
        require(err < ENSEMBLE_SIGMAS * se,
                f"distance to the exact state {err:.4f} >= {ENSEMBLE_SIGMAS:g} x SE {se:.4f}")
        first = self._bytes.setdefault(json.dumps(cfg, sort_keys=True), csv_path.read_bytes())
        require(csv_path.read_bytes() == first,
                "rho estimate bytes differ between passes of one seed")

    def _SemiclassicalDrift(self, cfg, outdir, expect):
        n, site, times = cfg["n_sites"], cfg["rho0_site"], cfg["times"]
        data = read_csv(outdir / "drift.csv", COLUMNS["drift"], len(times))
        require(bool(np.array_equal(data[:, 0], np.asarray(times, dtype=float))), "time column")
        require(float(np.abs(data[:, 1] - site).max()) <= 0.5,
                "master first moment leaves the launch site by more than 0.5")
        require(abs(data[-1, 2] - site) > 4,
                f"no-jump moment drifts only {data[-1, 2] - site:.2f} sites")
        pops = read_json(outdir / "populations.json")
        states = self._states(cfg, times)
        ref_master = np.array([np.diag(r).real for r in states])
        err = float(np.abs(np.asarray(pops["master"]) - ref_master).max())
        require(err <= RK4_TOL, f"RK4 populations off expm_multiply by {err:.3e}")
        H, P = operators(cfg["model"], n)
        psi0 = np.zeros(n, dtype=complex)
        psi0[site - 1] = 1.0
        ref_semi = []
        for t in times:
            prob = np.abs(scipy.linalg.expm(-1j * (H - 0.5j * P @ P) * t) @ psi0) ** 2
            ref_semi.append(prob / prob.sum())
        err = float(np.abs(np.asarray(pops["semiclassical"]) - np.array(ref_semi)).max())
        require(err <= 1e-8, f"no-jump populations off the exact exponential by {err:.3e}")
        sites = np.arange(1, n + 1)
        require(float(np.abs(data[:, 1] - ref_master @ sites).max()) <= 1e-6,
                "master moment column off the reference")
