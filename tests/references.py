"""Reference words, phases, states, circuits and sampled trials built without
the library's codewords.

Hadamard rows come from Python's popcount, Fourier rows from Python-int
residues 2jk mod 2N (so T_j[k] = r/N); the phases follow the circuit's rule
e^(i pi z) term by term.  The Hadamard circuit is also given in complex
arithmetic, the reference its real arithmetic is checked against bit for bit.
Sampled trials are drawn one at a time, with one Generator call per draw,
from the same four spawned children that the block sampler draws from.
assert_group_laws checks the codeword group laws on the tables of rows it is
given, and restricted_per_codeword counts one codeword's restricted
instances in closed form.  The squeezing tail-bound template and its eps
are solved here in exact Fractions.
"""

import math
from fractions import Fraction

import numpy as np

from spinoracle import StateVector


def hadamard_row(dim, j):
    """W_j as Python ints: bit x is popcount(j & x) mod 2."""
    return [(j & x).bit_count() % 2 for x in range(dim)]


def fourier_row(dim, j):
    """The numerators r of T_j = r/N as Python ints: 2jk mod 2N moved into (-N, N]."""
    residues = (2 * j * k % (2 * dim) for k in range(dim))
    return [r - 2 * dim if r > dim else r for r in residues]


def fourier_fractions(dim, j):
    """T_j as exact Fractions r/N in (-1, 1]."""
    return [Fraction(r, dim) for r in fourier_row(dim, j)]


def xor(bits, mask):
    """A word with an error mask applied, entry by entry, as Python ints."""
    return [int(b) ^ int(m) for b, m in zip(bits, mask, strict=True)]


def bit_phases(bits):
    """e^(i pi b) = 1 - 2b for each bit, exactly, as a float64 row."""
    return 1.0 - 2.0 * np.array(bits, dtype=float)


def fraction_phases(vals):
    """e^(i pi v) for each exact rational v."""
    return np.exp(1j * math.pi * np.array([float(v) for v in vals]))


def exp_phases(numerators, dim):
    """e^(i pi r/N) of Fourier numerators r by one np.exp over the whole block,
    the rule oracle_phases used before its table of roots."""
    return np.exp(1j * math.pi * (np.asarray(numerators) / dim))


def basis_state(dim, index):
    """The basis state |index> of an N = dim qudit."""
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def fraction_template(dim, eps):
    """The length-dim tail-bound template for a given eps, in exact Fractions."""
    half = dim // 2
    p = [Fraction(0)] * dim
    p[half - 1] = p[half] = Fraction(1, 2) - eps
    p[half - 3] = p[half + 2] = 2 * eps / 3
    p[half - 4] = p[half + 3] = eps / 3
    return p


def fraction_variance(dist):
    """sum i^2 P_i - (sum i P_i)^2 over the index, in exact Fractions."""
    mean = sum(i * p for i, p in enumerate(dist))
    return sum(i * i * p for i, p in enumerate(dist)) - mean * mean


def template_epsilon():
    """The eps with Var[template] = 1/2, solved exactly: the variance is
    affine in eps, so two exact evaluations pin the line."""
    base = fraction_variance(fraction_template(8, Fraction(0)))
    slope = fraction_variance(fraction_template(8, Fraction(1))) - base
    return (Fraction(1, 2) - base) / slope


def complex_fwht(amps):
    """The normalized Walsh-Hadamard transform of each row in complex
    arithmetic: a complex copy, two half-row copies per stage and a
    division by sqrt(N)."""
    out = amps.astype(complex)
    h = 1
    while h < out.shape[-1]:
        v = out.reshape(*out.shape[:-1], -1, 2, h)
        top = v[..., 0, :].copy()
        bot = v[..., 1, :].copy()
        v[..., 0, :] = top + bot
        v[..., 1, :] = top - bot
        h *= 2
    return out / math.sqrt(out.shape[-1])


def complex_pipeline(phases, transform="hadamard"):
    """R^dag U_z R |in> for each row of oracle phases, in complex arithmetic."""
    dim = phases.shape[-1]
    amps = np.zeros(dim, dtype=complex)
    amps[dim // 2 - 1] = amps[dim // 2] = 1 / math.sqrt(2)
    if transform == "hadamard":
        return complex_fwht(complex_fwht(amps) * phases.astype(complex))
    return np.fft.fft(np.fft.ifft(amps, norm="ortho") * phases, norm="ortho")


def complex_merge(amps, pairing):
    """The symmetric or adjacent merge, dividing complex amplitudes by sqrt(2)."""
    out = np.empty_like(amps)
    root = math.sqrt(2)
    if pairing == "symmetric":
        half = amps.shape[-1] // 2
        a = amps[..., half - 1 :: -1]
        b = amps[..., half:]
        out[..., half:] = (a + b) / root
        out[..., half - 1 :: -1] = (a - b) / root
    else:
        a = amps[..., 0::2]
        b = amps[..., 1::2]
        out[..., 0::2] = (a + b) / root
        out[..., 1::2] = (a - b) / root
    return out


def complex_spectra(phases, transform="hadamard", pairing="symmetric"):
    """|merged complex_pipeline amplitudes|^2 for each row of oracle phases."""
    return np.abs(complex_merge(complex_pipeline(phases, transform), pairing)) ** 2


class SpawnRecorder(np.random.Generator):
    """A Generator that keeps every child it spawns, in order.  spawn makes
    the children of the parent's own type, so they keep theirs too."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.children = []

    def spawn(self, n_children):
        children = super().spawn(n_children)
        self.children += children
        return children


def recorded_rng(seed):
    """default_rng(seed) as a SpawnRecorder: the same bit generator and seed."""
    return SpawnRecorder(np.random.PCG64(seed))


def assert_same_streams(rng, ref):
    """Two SpawnRecorders spawned the same children, each child drew exactly as
    much as its twin, and the parents' next spawns agree.  Spawning leaves a
    parent's own bit generator state as it was, so that state shows nothing."""
    assert len(rng.children) == len(ref.children)
    for child, twin in zip(rng.children, ref.children):
        assert child.bit_generator.state == twin.bit_generator.state
    assert rng.spawn(1)[0].bit_generator.state == ref.spawn(1)[0].bit_generator.state


def assert_group_laws(dim, w_row, t_row):
    """The five group laws on the full tables of rows w_row(dim, j) and
    t_row(dim, j), j in Z_N: W self-inverse, W mirror sum and W closure
    under XOR of bit rows; T inverse and T mirror sum under addition of
    numerators, reduced mod 2N into (-N, N]."""
    w = np.array([w_row(dim, j) for j in range(dim)])
    t = np.array([t_row(dim, j) for j in range(dim)])
    js = np.arange(dim)

    def t_sum(a, b):
        r = (a + b) % (2 * dim)
        return np.where(r > dim, r - 2 * dim, r)

    assert np.array_equal(w ^ w, np.broadcast_to(w[0], w.shape)), "W self-inverse"
    assert np.array_equal(w ^ w[::-1], np.broadcast_to(w[-1], w.shape)), "W mirror sum"
    assert np.array_equal(w[:, None] ^ w[None, :], w[js[:, None] ^ js]), "W closure"
    assert np.array_equal(t_sum(t, t[-js % dim]), np.broadcast_to(t[0], t.shape)), "T inverse"
    assert np.array_equal(t_sum(t, t[(dim // 2 - js) % dim]),
                          np.broadcast_to(t[dim // 2], t.shape)), "T mirror sum"


def reference_class(variant, dim):
    """The instance class as the paper states it: (codeword range, error
    positions, admitted weights).  j runs over Z_N for the error-free Fourier
    instances and Z_(N/2) otherwise; restricted errors sit on the positions
    of odd popcount, fewer than N // 4 of them, and unrestricted errors
    anywhere, fewer than ceil(N/16)."""
    high = dim if variant == "fourier" else dim // 2
    pool = [x for x in range(dim) if variant != "restricted" or x.bit_count() % 2]
    bound = {"restricted": dim // 4, "unrestricted": math.ceil(dim / 16), "fourier": 1}[variant]
    return high, pool, range(bound)


def restricted_per_codeword(dim):
    """Strings within restricted distance < N/4 of one codeword, in closed
    form: sum_(m < N/4) C(N/2, m) = (2^(N/2) - C(N/2, N/4)) / 2."""
    return (2 ** (dim // 2) - math.comb(dim // 2, dim // 4)) // 2


def reference_trials(variant, dim, d, rng, mask=None):
    """Endless sampled trials (j, mask bits or None, weight, vote child), drawn
    one at a time from the four children of rng.spawn(4), in the order
    weight class, error positions, codeword index, vote variates.

    The weight class is one Generator.choice over the classes' shares (one
    uniform against their CDF).  The errors sit at the positions whose rank
    in one permutation of the pool (the odd-parity positions if restricted)
    is below the weight.  j is one bounded integer, in Z_N for Fourier
    instances and Z_(N/2) otherwise.  A fixed mask draws only j, and Fourier
    instances carry no mask.  The caller draws the vote variates from the
    vote child, trial after trial.
    """
    weight_rng, position_rng, index_rng, vote_rng = rng.spawn(4)
    high, pool, admitted = reference_class(variant, dim)
    chosen = range(dim) if d is None else [d] if isinstance(d, int) else d
    weights = [m for m in admitted if m in chosen]
    counts = [math.comb(len(pool), m) for m in weights]
    p = [float(c) / float(sum(counts)) for c in counts]  # the classes' shares, below 2^1000
    while True:
        bits, weight = None, None
        if mask is not None:
            bits = [int(b) for b in mask]
            weight = sum(bits)
        elif variant != "fourier":
            weight = weights[int(weight_rng.choice(len(weights), p=p))]
            ranks = position_rng.permutation(len(pool)).tolist()
            errors = {x for x, rank in zip(pool, ranks) if rank < weight}
            bits = [int(x in errors) for x in range(dim)]
        yield int(index_rng.integers(0, high)), bits, weight, vote_rng
