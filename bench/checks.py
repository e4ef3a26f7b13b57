"""Output checks for the benchmark, computed apart from spinoracle.

Nothing here imports spinoracle.  Every check recomputes what it compares
against from first principles (explicit spin matrices, a Taylor-series
matrix exponential, explicit Sylvester Hadamard and DFT matrices, an own
decision-tree search) or tests a property the method guarantees.  No check
compares against a stored copy of earlier output.

Each check_* function reads one CLI command's output directory and raises
CheckFailed with the first problem it finds.
"""

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

# Written values carry 9 significant digits; these slacks cover that rounding.
PRINT_ABS = 1e-9
PRINT_REL = 1e-8
EXACT = 1e-12  # for values the program writes at full double precision


class CheckFailed(Exception):
    """An output of the program is wrong or missing."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(a, b, abs_tol, rel_tol=0.0):
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


# ---------------------------------------------------------------- readers


def read_csv(path: Path):
    """(header, rows) of a schema-1 CSV file; cells stay strings."""
    _require(path.is_file(), f"missing output {path.name}")
    lines = path.read_text().split("\n")
    _require(lines[-1] == "", f"{path.name}: last line not LF-terminated")
    lines = lines[:-1]
    _require(lines and lines[0] == "# schema_version=1", f"{path.name}: bad schema line")
    _require(len(lines) >= 2, f"{path.name}: no header")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    _require(all(len(r) == len(header) for r in rows), f"{path.name}: ragged rows")
    return header, rows


def read_json(path: Path) -> dict:
    _require(path.is_file(), f"missing output {path.name}")
    doc = json.loads(path.read_text())
    _require(doc.get("schema_version") == 1, f"{path.name}: bad schema_version")
    return doc


def _column(rows, k):
    return np.array([float(r[k]) for r in rows])


# ------------------------------------------------------ independent physics


def spin_matrices(dim: int):
    """(Sx, Sy, Sz) for spin s = (dim-1)/2, index i <-> m = i - s."""
    s = (dim - 1) / 2
    m = np.arange(dim) - s
    raise_op = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        raise_op[i + 1, i] = math.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    lower = raise_op.conj().T
    return (raise_op + lower) / 2, (raise_op - lower) / 2j, np.diag(m).astype(complex)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = a / 2.0**squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def equatorial_coherent_state(dim: int) -> np.ndarray:
    """|pi/2, 0>: amplitude sqrt(C(2s, k)) / 2^s on |s - k> (index dim-1-k)."""
    two_s = dim - 1
    amps = np.zeros(dim, dtype=complex)
    for k in range(dim):
        amps[dim - 1 - k] = math.sqrt(math.comb(two_s, k) / 2.0**two_s)
    return amps


@lru_cache(maxsize=None)
def _squeeze_parts(dim: int):
    sx, sy, sz = spin_matrices(dim)
    rotation = expm(-1j * (math.pi / 4) * sx)
    twist = sz @ sz - sy @ sy
    psi = equatorial_coherent_state(dim)
    if np.max(np.abs(sx @ psi - (dim - 1) / 2 * psi)) > 1e-9:
        raise CheckFailed(f"own coherent state is not the Sx = s eigenvector at N={dim}")
    return rotation, twist, psi


def squeezed_distribution(dim: int, mu: float) -> np.ndarray:
    """|exp(-i pi/4 Sx) exp(i mu (Sz^2 - Sy^2)) |pi/2, 0>|^2."""
    rotation, twist, psi = _squeeze_parts(dim)
    return np.abs(rotation @ (expm(1j * mu * twist) @ psi)) ** 2


def _tail_weight(dim: int, mu: float) -> float:
    p = squeezed_distribution(dim, mu)
    return 1.0 - p[dim // 2 - 1] - p[dim // 2]


@lru_cache(maxsize=None)
def sylvester(dim: int) -> np.ndarray:
    """Normalized Sylvester Hadamard matrix H_N = H_2 (x) ... (x) H_2."""
    h = np.array([[1.0]])
    while h.shape[0] < dim:
        h = np.block([[h, h], [h, -h]])
    return h / math.sqrt(dim)


def hadamard_signs(dim: int, j: int) -> np.ndarray:
    """(-1)^(W_j): row j of the unnormalized Sylvester matrix."""
    return np.rint(sylvester(dim)[j] * math.sqrt(dim))


def _two_component_input(dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[dim // 2 - 1] = psi[dim // 2] = 1 / math.sqrt(2)
    return psi


def symmetric_merge(a: np.ndarray) -> np.ndarray:
    """(|N/2-1-j> + |N/2+j>)/sqrt(2) -> |N/2+j>, the difference -> |N/2-1-j>."""
    n = len(a)
    out = np.empty_like(a)
    for j in range(n // 2):
        lo, hi = n // 2 - 1 - j, n // 2 + j
        out[hi] = (a[lo] + a[hi]) / math.sqrt(2)
        out[lo] = (a[lo] - a[hi]) / math.sqrt(2)
    return out


def adjacent_merge(a: np.ndarray) -> np.ndarray:
    """(|2k> + |2k+1>)/sqrt(2) -> |2k>, the difference -> |2k+1>."""
    out = np.empty_like(a)
    for k in range(0, len(a), 2):
        out[k] = (a[k] + a[k + 1]) / math.sqrt(2)
        out[k + 1] = (a[k] - a[k + 1]) / math.sqrt(2)
    return out


def hadamard_spectrum(phases: np.ndarray) -> np.ndarray:
    """Outcome distribution of H diag(phases) H on the two-component input,
    after the symmetric merge."""
    h = sylvester(len(phases))
    out = h @ (phases * (h @ _two_component_input(len(phases))))
    return np.abs(symmetric_merge(out)) ** 2


def in_phase_error_positions(dim: int, weight: int) -> list:
    """The worst-case unrestricted error positions: the first `weight` indices
    x where both W_1 and W_(N-1) are 0, so every flip adds coherently."""
    w1, wlast = hadamard_signs(dim, 1), hadamard_signs(dim, dim - 1)
    pool = [x for x in range(dim) if w1[x] > 0 and wlast[x] > 0]
    _require(weight <= len(pool), f"no room for {weight} in-phase errors at N={dim}")
    return pool[:weight]


def worst_case_phases(dim: int, j: int, weight: int) -> np.ndarray:
    phases = hadamard_signs(dim, j).copy()
    phases[in_phase_error_positions(dim, weight)] *= -1
    return phases


def fourier_probability(dim: int, j: int) -> float:
    """Pr[N-2] for codeword T_j: explicit DFT, phase e^(2 pi i jk/N), inverse
    DFT, adjacent merge."""
    k = np.arange(dim)
    f = np.exp(2j * math.pi * np.outer(k, k) / dim) / math.sqrt(dim)
    phases = np.exp(2j * math.pi * j * k / dim)
    out = f.conj().T @ (phases * (f @ _two_component_input(dim)))
    return float(np.abs(adjacent_merge(out)[dim - 2]) ** 2)


def min_decision_tree_depth(dim: int) -> int:
    """Fewest bit queries that always separate j = N/2-1 from the other j < N/2."""
    words = [hadamard_signs(dim, j) for j in range(dim // 2)]
    target = dim // 2 - 1

    @lru_cache(maxsize=None)
    def depth(alive):
        if target not in alive or len(alive) == 1:
            return 0
        best = None
        for x in range(dim):
            plus = frozenset(j for j in alive if words[j][x] > 0)
            if plus and plus != alive:
                d = 1 + max(depth(plus), depth(alive - plus))
                best = d if best is None else min(best, d)
        return best

    return depth(frozenset(range(dim // 2)))


# ------------------------------------------------------------ squeeze


def check_squeeze_scan(out: Path, tol: float, exponents) -> None:
    header, rows = read_csv(out / "squeeze_scan.csv")
    _require(header == ["s", "mu_opt", "v_min", "p_c", "overlap"], "squeeze_scan header")
    dims = [2**n for n in exponents]
    s_vals = _column(rows, 0)
    _require(list(s_vals) == [(d - 1) / 2 for d in dims], f"scan s column {list(s_vals)}")
    mu, v_min, p_c, overlap = (_column(rows, k) for k in range(1, 5))
    for i, dim in enumerate(dims):
        label = f"scan s={s_vals[i]}"
        _require(31 / 64 - PRINT_ABS <= p_c[i] <= 0.5 + PRINT_ABS, f"{label}: p_c={p_c[i]}")
        _require(0.25 - PRINT_ABS <= v_min[i] < 0.5, f"{label}: V-={v_min[i]}")
        _require(overlap[i] <= 2 * p_c[i] + PRINT_ABS, f"{label}: overlap above 2 p_c")
        if dim == 4:
            _require(_close(mu[i], math.pi / (6 * math.sqrt(3)), tol + PRINT_ABS),
                     f"{label}: mu={mu[i]} is not pi/(6 sqrt 3)")
            _require(_close(v_min[i], 0.25, PRINT_ABS), f"{label}: V-={v_min[i]} != 1/4")
            _require(_close(p_c[i], 0.5, PRINT_ABS), f"{label}: p_c={p_c[i]} != 1/2")
        _check_histogram(out, dim, v_min[i], p_c[i])
        if dim <= 64:
            _check_rebuilt_distribution(out, dim, mu[i], tol)


def _histogram(out: Path, dim: int):
    header, rows = read_csv(out / f"hist_N{dim}.csv")
    _require(header == ["index", "probability", "bound"], f"hist_N{dim} header")
    _require([int(r[0]) for r in rows] == list(range(dim)), f"hist_N{dim} index column")
    return _column(rows, 1), [r[2] for r in rows]


def _check_histogram(out: Path, dim: int, v_min: float, p_c: float) -> None:
    p, bound = _histogram(out, dim)
    name, half = f"hist_N{dim}", dim // 2
    _require(np.all(p >= 0), f"{name}: negative probability")
    _require(_close(p.sum(), 1.0, 1e-6), f"{name}: sums to {p.sum()}")
    _require(np.allclose(p, p[::-1], rtol=PRINT_REL, atol=PRINT_ABS), f"{name}: not mirror-symmetric")
    _require(max(p[half - 2], p[half + 1]) <= PRINT_ABS, f"{name}: components next to the central pair are not 0")
    _require(_close(p[half - 1], p_c, PRINT_ABS), f"{name}: central weight differs from the scan's p_c")
    centred = np.arange(dim) - (dim - 1) / 2
    var = float(centred**2 @ p - (centred @ p) ** 2)
    _require(_close(var, v_min, 1e-6, 1e-6), f"{name}: variance {var} != scan V- {v_min}")
    if dim < 8:
        _require(all(b == "" for b in bound), f"{name}: bound column should be empty")
        return
    eps = 1 / 64  # Var(template) = 1/4 + 16 eps = 1/2
    template = np.zeros(dim)
    template[[half - 1, half]] = 0.5 - eps
    template[[half - 3, half + 2]] = 2 * eps / 3
    template[[half - 4, half + 3]] = eps / 3
    _require(np.allclose([float(b) for b in bound], template, rtol=PRINT_REL, atol=0),
             f"{name}: bound column is not the eps = 1/64 template")


def _check_rebuilt_distribution(out: Path, dim: int, mu: float, tol: float) -> None:
    p, _ = _histogram(out, dim)
    own = squeezed_distribution(dim, mu)
    dev = float(np.max(np.abs(own - p)))
    _require(dev <= 1e-7, f"hist_N{dim}: differs from U(mu) rebuilt independently by {dev:.2e}")
    # Exact ties between basins resolve to the smallest mu, so a local minimum
    # is the property to test, with a step well above the search tolerance.
    step = max(1e-4 * mu, 100 * tol)
    here = _tail_weight(dim, mu)
    for other in (mu - step, mu + step):
        _require(_tail_weight(dim, other) >= here - 1e-12,
                 f"s={(dim - 1) / 2}: mu={mu} is not a local minimum of the tail weight")


def check_qfunc(out: Path, n: int, state: str, grid: tuple, scan_out: Path | None) -> None:
    dim = 2**n
    header, rows = read_csv(out / f"qfunc_{state}_N{dim}.csv")
    _require(header == ["theta", "phi", "q"], "qfunc header")
    t_steps, p_steps = grid
    _require(len(rows) == t_steps * p_steps, f"qfunc has {len(rows)} rows")
    cells = np.array([[float(c) for c in r] for r in rows]).reshape(t_steps, p_steps, 3)
    q = cells[:, :, 2]
    # the written angles are rounded; compare them, then use the exact grid
    thetas = np.linspace(0, math.pi, t_steps)
    phis = 2 * math.pi * np.arange(p_steps) / p_steps
    _require(np.allclose(cells[:, :, 0], thetas[:, None], atol=PRINT_ABS)
             and np.allclose(cells[:, :, 1], phis[None, :], atol=PRINT_ABS), "qfunc angle grid")
    _require(float(q.min()) >= 0, "qfunc: negative Q")
    d_theta = thetas[1] - thetas[0]
    w = np.full(t_steps, d_theta)
    w[0] = w[-1] = d_theta / 2
    total = float((w * np.sin(thetas)) @ q.sum(axis=1)) * (2 * math.pi / p_steps) * dim / (4 * math.pi)
    _require(_close(total, 1.0, 1e-6), f"qfunc: quadrature total {total}")
    dist_header, dist_rows = read_csv(out / f"dist_{state}_N{dim}.csv")
    _require(dist_header == ["index", "probability"], "dist header")
    dist = _column(dist_rows, 1)
    if state == "coherent":
        # Q of the +x coherent state: ((1 + sin(theta) cos(phi)) / 2)^(2s),
        # largest (= 1) at theta = pi/2, phi = 0.
        model = ((1 + np.outer(np.sin(thetas), np.cos(phis))) / 2) ** (dim - 1)
        _require(np.allclose(q, model, rtol=PRINT_REL, atol=PRINT_ABS), "qfunc coherent: map differs from the analytic map")
        t_top, p_top = np.unravel_index(int(np.argmax(q)), q.shape)
        _require(phis[p_top] == 0 and abs(thetas[t_top] - math.pi / 2) <= d_theta / 2 + 1e-12,
                 "qfunc coherent: peak is not at (pi/2, 0)")
        binom = np.array([math.comb(dim - 1, k) / 2.0 ** (dim - 1) for k in range(dim)])
        _require(np.allclose(dist, binom, rtol=PRINT_REL, atol=1e-15), "dist coherent: not binomial")
    else:
        scan_p, _ = _histogram(scan_out, dim)
        _require(np.allclose(dist, scan_p, rtol=PRINT_REL, atol=PRINT_ABS),
                 f"dist squeezed: differs from the scan's hist_N{dim}")


# ------------------------------------------------------------ decisions


def _solve_doc(out: Path, variant: str, dim: int, config: dict) -> dict:
    doc = read_json(out / f"solve_{variant}_N{dim}.json")
    _require(doc.get("command") == "solve", "solve: command field")
    cfg = doc["config"]
    for key, val in {"variant": variant, "N": dim, **config}.items():
        _require(cfg.get(key) == val, f"solve config {key}={cfg.get(key)!r}, expected {val!r}")
    return doc


def _check_reports(doc: dict, variant: str, dim: int, count: int, reps: int) -> list:
    reports = doc["reports"]
    _require(len(reports) == count, f"{len(reports)} reports, expected {count}")
    summary = doc["summary"]
    _require(summary["instances"] == count, "summary instances")
    target = dim // 2 - 1
    for rep in reports:
        _require(rep["variant"] == variant and rep["N"] == dim, "report variant/N")
        _require(rep["label"] == ("A" if rep["hiddenJ"] == target else "B"), f"label of j={rep['hiddenJ']}")
        _require(rep["decision"] in ("A", "B"), "decision value")
        _require(rep["queries"] == reps and rep["repetitions"] == reps, "queries != repetitions")
        _require(0.0 <= rep["prTop"] <= 1.0 + EXACT, "prTop outside [0, 1]")
        if dim <= 64:
            per = np.array(rep["perOutcome"])
            _require(_close(per.sum(), 1.0, EXACT), "perOutcome does not sum to 1")
        else:
            _require("perOutcome" not in rep, "perOutcome embedded above N = 64")
    if count:
        correct = sum(r["decision"] == r["label"] for r in reports)
        _require(summary["accuracy"] == correct / count, "summary accuracy")
        _require(summary["mean_queries"] == reps, "summary mean_queries")
    return reports


def _check_against_phases(rep: dict, phases: np.ndarray, designated: int) -> None:
    expected = hadamard_spectrum(phases)
    _require(_close(rep["prTop"], expected[designated], EXACT),
             f"prTop {rep['prTop']} != {expected[designated]} for j={rep['hiddenJ']}")
    if "perOutcome" in rep:
        dev = float(np.max(np.abs(np.array(rep["perOutcome"]) - expected)))
        _require(dev <= EXACT, f"perOutcome off by {dev:.2e} for j={rep['hiddenJ']}")


def check_unrestricted(out: Path, n: int, errors: int, reps: int, trials: int,
                       seed: int, mode: str) -> None:
    dim = 2**n
    doc = _solve_doc(out, "unrestricted", dim, {
        "errors": errors, "reps": reps, "trials": trials, "seed": seed, "error_mode": mode,
    })
    reports = _check_reports(doc, "unrestricted", dim, trials, reps)
    target = dim // 2 - 1
    principal = (1 - 4 * errors / dim) ** 2
    off_bound = (4 * errors / dim) ** 2
    if mode == "worst":
        spectrum = np.array(doc["worst_case_spectrum"])
        expected = hadamard_spectrum(worst_case_phases(dim, target, errors))
        dev = float(np.max(np.abs(spectrum - expected)))
        _require(dev <= EXACT, f"worst_case_spectrum off by {dev:.2e}")
        _require(_close(spectrum[dim - 1], principal, EXACT), "worst case: Pr[top] != (1 - 4l/N)^2")
    else:
        _require("worst_case_spectrum" not in doc, "random mode wrote a worst_case_spectrum")
    for rep in reports:
        j = rep["hiddenJ"]
        _require(0 <= j < dim // 2, f"hiddenJ {j} outside the promise")
        if mode == "worst":
            _check_against_phases(rep, worst_case_phases(dim, j, errors), dim - 1)
            if j == target:
                _require(_close(rep["prTop"], principal, EXACT), "A instance: prTop != (1 - 4l/N)^2")
        elif j == target:
            _require(rep["prTop"] >= 9 / 16, f"A instance: prTop {rep['prTop']} < 9/16")
        if j != target:
            _require(rep["prTop"] <= off_bound + EXACT, f"B instance: prTop {rep['prTop']} > (4l/N)^2")


def check_worst_spectrum(out: Path, n: int, errors: int, seed: int) -> None:
    dim = 2**n
    doc = _solve_doc(out, "unrestricted", dim, {"errors": errors, "trials": 0, "seed": seed})
    _check_reports(doc, "unrestricted", dim, 0, 1)
    spectrum = np.array(doc["worst_case_spectrum"])
    expected = hadamard_spectrum(worst_case_phases(dim, dim // 2 - 1, errors))
    dev = float(np.max(np.abs(spectrum - expected)))
    _require(dev <= EXACT, f"worst_case_spectrum l={errors} off by {dev:.2e}")
    _require(_close(spectrum[dim - 1], (1 - 4 * errors / dim) ** 2, EXACT),
             f"worst case l={errors}: Pr[top] != (1 - 4l/N)^2")


def check_restricted(out: Path, n: int, trials: int, seed: int) -> None:
    """Restricted errors cancel exactly: every instance decided with certainty."""
    dim = 2**n
    doc = _solve_doc(out, "restricted", dim, {"errors": None, "seed": seed})
    if dim <= 16:
        # exhaustive: every j < N/2 with every mask of weight d < N/4 on N/2 slots
        per_j = sum(math.comb(dim // 2, d) for d in range(dim // 4))
        count = (dim // 2) * per_j
    else:
        count = trials
    reports = _check_reports(doc, "restricted", dim, count, 1)
    for rep in reports:
        j = rep["hiddenJ"]
        _require(rep["decision"] == rep["label"], f"restricted j={j} decided wrongly")
        expected = 1.0 if j == dim // 2 - 1 else 0.0
        _require(_close(rep["prTop"], expected, EXACT),
                 f"restricted j={j}: prTop {rep['prTop']}, expected {expected}")
        if "perOutcome" in rep:
            _check_against_phases(rep, hadamard_signs(dim, j), dim - 1)
    if dim <= 16:
        js = [rep["hiddenJ"] for rep in reports]
        _require(all(js.count(j) == per_j for j in range(dim // 2)), "restricted: instances per j")
    _require(doc["summary"]["accuracy"] == 1.0, "restricted accuracy below 1")


def check_fourier(out: Path, n: int, seed: int, spot_rows: int = 6) -> None:
    dim = 2**n
    doc = _solve_doc(out, "fourier", dim, {})
    table = np.array(doc["probability_table"])
    _require(table.shape == (dim,), "probability_table length")
    expected = np.zeros(dim)
    expected[dim // 2 - 1] = 1.0
    expected[[dim // 2 - 2, dim // 2]] = 0.25
    dev = float(np.max(np.abs(table - expected)))
    _require(dev <= EXACT, f"probability_table off the 1 / 1/4 / 0 pattern by {dev:.2e}")
    rng = np.random.default_rng(seed)
    spots = {dim // 2 - 2, dim // 2 - 1, dim // 2, *map(int, rng.integers(0, dim, spot_rows))}
    for j in sorted(spots):
        _require(_close(table[j], fourier_probability(dim, j), EXACT),
                 f"probability_table[{j}] differs from the explicit DFT")
    reports = _check_reports(doc, "fourier", dim, dim, 1)
    _require(sorted(r["hiddenJ"] for r in reports) == list(range(dim)), "fourier: one report per j")
    for rep in reports:
        _require(_close(rep["prTop"], table[rep["hiddenJ"]], EXACT), "fourier prTop != table entry")
        _require(rep["decision"] == rep["label"], f"fourier j={rep['hiddenJ']} decided wrongly")


def check_classical(out: Path, exponents) -> None:
    header, rows = read_csv(out / "classical_comparison.csv")
    _require(header == ["N", "quantum_queries", "classical_queries", "classical_min_depth"],
             "classical header")
    _require([int(r[0]) for r in rows] == [2**n for n in exponents], "classical N column")
    for r in rows:
        dim = int(r[0])
        _require(int(r[1]) == 1, f"N={dim}: quantum queries {r[1]}")
        _require(int(r[2]) == dim.bit_length() - 1, f"N={dim}: classical queries {r[2]} != log2 N")
        expected = str(min_decision_tree_depth(dim)) if dim <= 16 else ""
        _require(r[3] == expected, f"N={dim}: minimum depth {r[3]!r}, expected {expected!r}")
