"""A seeded fuzz of the command line, with argv drawn from the option table.

Each case is a command and some of its flags (cli._flags), each given a
valid, an edge or an invalid text for its key, as --flag VALUE or
--flag=VALUE.  Some cases read their options from a --config file, a few of
them not UTF-8, and some add a fault of their own: a flag of another
command, an unknown flag, a flag with no value, an --out under a file, or
no command at all.  The sizes stay small: n <= 7, trials <= 64, reps <= 9,
grids <= 32x32, s ranges up to 127/2.

Every case must end in a documented exit code.  A refused case prints one
line on stderr and creates no --out.  A case that succeeds and whose index
is a multiple of five is run again and must write the same bytes.  A case
that fails is a fault to fix; the seed is not changed to hide it.
"""

import random

import pytest

from spinoracle.cli import _COMMAND_DEFAULTS, _OPTIONS, _flags, main

SEED = 34
CASES = 300
EXIT_CODES = {0, 2, 3, 4}

# key -> (valid, edge, invalid) texts; every admitted one stays inside the size bounds
TEXTS = {
    "n": (["2", "3", "5"], ["7", " 4", "+6"], ["1", "15", "-3", "x", "3.0", ""]),
    "s_range": (["3/2", "3/2:15/2", "1/2:127/2"], ["127/2", "7/2:7/2", " 3/2 : 31/2 ", "0.5:8"],
                ["x", "1/0", "1:2:3", "1000", "63/2:3/2", "1/2", "inf", ""]),
    "variant": (["restricted", "unrestricted", "fourier"], [], ["Restricted", "quantum", ""]),
    "errors": (["0", "1"], ["2", "3"], ["-1", "x", "1.5", "99", ""]),
    "reps": (["1", "3"], ["9"], ["0", "-2", "x", "1e3"]),
    "trials": (["1", "16"], ["0", "64"], ["-1", "x", "65537", "2.0"]),
    "seed": (["0", "7"], ["4294967295", "18446744073709551616"], ["-1", "x", "1.5"]),
    "grid": (["8x8", "16x4"], ["1x1", "32X32", "2x32"], ["0x8", "8", "axb", "-4x4", "8x8x8", ""]),
    "tol": (["1e-8", "1e-4"], ["1e-300", "0.5", "1e308"], ["0", "-1e-8", "inf", "nan", "x"]),
    "format": (["csv", "json"], [], ["xml", "CSV", ""]),
    "state": (["coherent", "squeezed"], [], ["thermal", ""]),
    "error_mode": (["worst", "random"], [], ["best", ""]),
}
assert set(TEXTS) == set(_OPTIONS) - {"out"}


def flag_text(rng, key):
    """A text for the key's flag: valid, else edge, else invalid."""
    valid, edge, invalid = TEXTS[key]
    roll = rng.random()
    pool = valid if roll < 0.6 or (roll < 0.85 and not edge) else edge if roll < 0.85 else invalid
    return rng.choice(pool)


def draw_case(i, tmp_path):
    """Case i's argv and its --out path: a pure function of SEED and i."""
    rng = random.Random(f"{SEED}-{i}")
    out = tmp_path / "out"
    command = rng.choice(sorted(_COMMAND_DEFAULTS))
    flags = [flag for flag in _flags(command) if flag not in ("--out", "--config")]
    given = {flag: flag_text(rng, _flags(command)[flag])
             for flag in rng.sample(flags, rng.randint(0, len(flags)))}
    argv = [command]
    if given and rng.random() < 0.15:  # some of the flags come from a config file
        moved = dict(rng.sample(sorted(given.items()), rng.randint(1, len(given))))
        config = tmp_path / "options.cfg"
        lines = [f"{flag[2:].replace('-', rng.choice('-_'))} = {text}"
                 for flag, text in moved.items()]
        text = ("# fuzz case\n" + "\n".join(lines) + "\n").encode()
        config.write_bytes(text + b"\xff=1\n" if rng.random() < 0.2 else text)  # not UTF-8
        given = {flag: text for flag, text in given.items() if flag not in moved}
        argv += ["--config", str(config)]
    for flag, text in given.items():
        argv += [f"{flag}={text}"] if rng.random() < 0.3 else [flag, text]
    fault, last = rng.random(), []
    if fault < 0.03:
        foreign = sorted(set().union(*map(_flags, _COMMAND_DEFAULTS)) - set(_flags(command)))
        argv += [rng.choice(foreign), "1"]  # a flag of another command
    elif fault < 0.05:
        argv += ["--bogus", "1"]
    elif fault < 0.07:
        last = [rng.choice(flags)]  # the last token: its value is missing
    elif fault < 0.09:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    elif fault < 0.10:
        argv = argv[1:] if rng.random() < 0.5 else ["squeeze", *argv[1:]]
    return [*argv, "--out", str(out), *last], out


def written(out):
    """Every file the run wrote, by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("i", range(CASES))
def test_fuzzed_argv_ends_in_a_documented_exit(i, tmp_path, capsys):
    argv, out = draw_case(i, tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in EXIT_CODES, argv
    if code:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), (argv, err)
        assert not out.exists(), argv
        return
    assert err == "", argv
    if i % 5 == 0 and out.exists():  # a seeded run writes the same bytes again
        again = tmp_path / "again"
        assert main([str(again) if arg == str(out) else arg for arg in argv]) == 0, argv
        assert written(again) == written(out), argv
