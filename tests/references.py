"""Reference words, phases, states and circuits built without the library's codewords.

Hadamard rows come from Python's popcount, Fourier rows from Python-int
residues 2jk mod 2N (so T_j[k] = r/N); the phases follow the circuit's rule
e^(i pi z) term by term.  The Hadamard circuit is also given in complex
arithmetic, the reference its real arithmetic is checked against bit for bit.
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
