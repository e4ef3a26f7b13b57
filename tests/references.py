"""Reference words, phases and states built without the library's codewords.

Hadamard rows come from Python's popcount, Fourier rows from Python-int
residues 2jk mod 2N (so T_j[k] = r/N); the phases follow the circuit's rule
e^(i pi z) term by term.
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
    """e^(i pi b) = 1 - 2b for each bit, exactly."""
    return (1.0 - 2.0 * np.array(bits, dtype=float)).astype(complex)


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
