"""Command-line front end: every figure dataset and claim experiment.

Subcommands
    squeeze-scan   squeezing sweep CSV (s, mu_opt, v_min, p_c, overlap) plus
                   per-s probability histograms with the eps = 1/64 tail-bound
                   template
    qfunc          spherical Q-function grid and basis-state distribution
                   for the coherent or optimally squeezed state
    solve          decision experiments for the restricted / unrestricted /
                   fourier variants (exhaustive where feasible, otherwise
                   seeded trials), JSON reports with summary
    classical      query-count comparison table, with the brute-force
                   minimum decision-tree depth where feasible

All randomness flows from --seed, so identical configs reproduce outputs
byte for byte.  Options may also come from a key=value config file
(--config); explicit flags win.  Exit codes: 0 ok, 2 config error,
3 resource guard, 4 invariant violation or numerical failure.
"""

from __future__ import annotations

import json
import math
import sys as _sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import classical_baseline, codewords, oracle_circuit, squeezing
from .errors import ConfigError, Frozen, InvariantError, NumericsError, ResourceLimitError
from .qfunction import q_function
from .spin_core import MAX_EXPONENT, MIN_EXPONENT, coherent_state, make_spin_system

SCHEMA_VERSION = 1
MAX_TRIALS = 2**16  # solve holds the text of every report row until main writes it


def _s_range_exponents(text: str) -> list[int]:
    """Exponents n with s = (2^n - 1)/2 inside the closed s interval 'lo:hi' (or 's')."""
    try:
        bounds = [float(Fraction(part.strip())) for part in text.split(":")]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"--s-range must hold fractions, got {text!r}") from exc
    if len(bounds) > 2:
        raise ConfigError(f"--s-range must be 'lo:hi' or a single value, got {text!r}")
    exps = [n for n in range(MIN_EXPONENT, MAX_EXPONENT + 1)
            if bounds[0] <= (2**n - 1) / 2 <= bounds[-1]]
    if not exps:
        raise ConfigError(f"no power-of-two spin systems inside --s-range {text!r}")
    return exps


def _grid_shape(text: str) -> tuple[int, int]:
    try:
        t, p = text.lower().split("x")
        return int(t), int(p)
    except ValueError as exc:
        raise ConfigError(f"--grid must look like 128x128, got {text!r}") from exc


# checks: value -> None if it is valid, else the reason it is not (or they raise)
def _at_least(least: int):
    return lambda value: None if value >= least else f"must be >= {least}"


def _finite_positive(value: float):
    return None if math.isfinite(value) and value > 0 else "must be finite and > 0"


def _trial_count(value: int):
    if value > MAX_TRIALS:
        raise ResourceLimitError(f"--trials {value} above the cap {MAX_TRIALS}")
    return _at_least(0)(value)


def _accepted_by(build: Callable):
    return lambda value: build(value) and None  # build raises its own ConfigError


class _Option(NamedTuple):
    convert: Callable  # str -> value; ValueError if the text is not one
    check: Callable | None
    default: object
    commands: tuple[str, ...]  # the commands that read it; no other command takes it
    help: str
    choices: tuple[str, ...] = ()  # if given, the only values accepted


# each command's own defaults, applied over the table's
_COMMAND_DEFAULTS = {
    "squeeze-scan": {"s_range": "3/2:511/2"},
    "qfunc": {"n": 6, "state": "coherent", "grid": "64x64"},
    "solve": {"n": 3, "variant": "restricted", "error_mode": "worst", "format": "json"},
    "classical": {"s_range": "3/2:511/2", "trials": 32},
}
_EVERY = tuple(_COMMAND_DEFAULTS)
# the one description of every option: flags, config-file keys, defaults and checks
_OPTIONS = {
    "n": _Option(int, _accepted_by(make_spin_system), None, ("qfunc", "solve"),
                 "spin-system exponent, N = 2^n"),
    "s_range": _Option(str, _accepted_by(_s_range_exponents), None, ("squeeze-scan", "classical"),
                       "spin range 'lo:hi' as fractions, e.g. 3/2:511/2"),
    "variant": _Option(str, None, None, ("solve",), "decision problem", codewords.VARIANTS),
    "errors": _Option(int, _at_least(0), None, ("solve",), "error weight d (or l)"),
    "reps": _Option(int, _at_least(1), 1, ("solve",), "pipeline repetitions per decision"),
    "trials": _Option(int, _trial_count, 1000, ("solve", "classical"), "sampled instances"),
    "seed": _Option(int, _at_least(0), 0, _EVERY, "seed of every random draw"),
    "grid": _Option(str, _accepted_by(_grid_shape), None, ("qfunc",), "grid steps, e.g. 128x128"),
    "tol": _Option(float, _finite_positive, 1e-8, ("squeeze-scan", "qfunc"), "mu tolerance"),
    "out": _Option(Path, None, Path("out"), _EVERY, "output directory"),
    "format": _Option(str, None, "csv", _EVERY, "output file format", ("csv", "json")),
    "state": _Option(str, None, None, ("qfunc",), "state to map", ("coherent", "squeezed")),
    "error_mode": _Option(str, None, None, ("solve",), "error placement", ("worst", "random")),
}


class RunConfig(Frozen):
    """One command's resolved options: the command, then one field per option."""

    __slots__ = ("command", *_OPTIONS)


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _flags(command: str) -> dict[str, str]:
    """The flags a command takes, each to its key: its _OPTIONS, then --config."""
    flags = {"--" + key.replace("_", "-"): key
             for key, opt in _OPTIONS.items() if command in opt.commands}
    return flags | {"--config": "config"}


class _HelpAsked(Exception):
    """-h or --help stood where a flag goes; the message is the help text."""


def _help(commands) -> str:
    lines = ["Spin-squeezing analysis and codeword oracle-decision experiments."]
    for command in commands:
        lines += ["", f"usage: spinoracle {command} [--flag VALUE | --flag=VALUE ...]"]
        for flag, key in _flags(command).items():
            opt = _OPTIONS.get(key)
            if opt is None:
                value, text = "FILE", "key=value file; explicit flags override it"
            else:
                value = "{" + ",".join(opt.choices) + "}" if opt.choices else key.upper()
                text = opt.help
            lines.append(f"  {flag} {value}".ljust(28) + f" {text}")
    return "\n".join(lines)


def _parse_argv(argv) -> tuple[str, dict]:
    """The command and each given flag's {key: text}, read from _OPTIONS.

    The first token names the command; every other token is --flag VALUE or
    --flag=VALUE, with exact flag names only.  The token after a flag is its
    value even when it starts with '-', and a repeated flag keeps its last
    value.  -h or --help in place of a flag raises _HelpAsked.  argv None
    reads sys.argv.
    """
    argv = _sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in ("-h", "--help"):
        raise _HelpAsked(_help(_EVERY))
    if not argv or argv[0] not in _COMMAND_DEFAULTS:
        got = repr(argv[0]) if argv else "nothing"
        raise ConfigError(f"expected a command, one of {'|'.join(_EVERY)}, got {got}")
    command, given = argv[0], {}
    flags = _flags(command)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise _HelpAsked(_help([command]))
        flag, eq, text = token.partition("=") if token.startswith("--") else (token, "", "")
        if flag not in flags:
            what = "flag" if flag.startswith("-") else "argument"
            raise ConfigError(f"{command} takes no {what} {flag!r}")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ConfigError(f"{flag} needs a value")
        given[flags[flag]] = text
    return command, given


def load_config(argv) -> RunConfig:
    """Defaults, then the config file, then the flags; every given value is checked."""
    command, given = _parse_argv(argv)
    if "config" in given:
        given = {**_read_config_file(given.pop("config")), **given}
    values = {key: opt.default for key, opt in _OPTIONS.items()} | _COMMAND_DEFAULTS[command]
    for key, text in given.items():
        opt = _OPTIONS.get(key)
        if opt is None or command not in opt.commands:
            raise ConfigError(f"{command} takes no config key {key!r}")
        flag = "--" + key.replace("_", "-")
        try:
            values[key] = value = opt.convert(text)
        except ValueError as exc:
            raise ConfigError(f"{flag} must be {opt.convert.__name__}, got {text!r}") from exc
        if opt.check and (reason := opt.check(value)):
            raise ConfigError(f"{flag} {reason}, got {value!r}")
        if opt.choices and value not in opt.choices:
            raise ConfigError(f"{flag} must be one of {'|'.join(opt.choices)}, got {value!r}")
    return RunConfig(command=command, **values)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as allow_nan writes them


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE[text] if "n" in text else text


# the json text of a str, int, float, bool or None, by exact type
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_scalar(value) -> str:
    return _SCALAR_TEXT[type(value)](value)


class _Texts(list):
    """A per-row column already rendered, which _row_pieces takes as it is."""


def _template_column(col, floats: str, text: Callable) -> tuple[str, list]:
    """A per-row column's %-spec in a block's template and the cells it takes.

    A _Texts is taken as it is.  Given '%.9g' (CSV), a column of floats is
    written by it, as _fmt writes any float.  Given '%r' (JSON), a column of
    finite builtin floats is written by it, as _float_text would ('%r'
    writes nan where JSON has NaN, and an np.float64 by numpy's repr); a
    column of exact ints by '%d'; and a column of exact strs through its
    distinct values' texts, each rendered once.  Any other column goes
    through ``text`` cell by cell.
    """
    if type(col) is _Texts:
        return "%s", col
    kinds = {*map(type, col)}
    if floats == "%r":  # the sum is not finite if a cell is not (or if it overflows)
        if kinds <= {float} and math.isfinite(sum(col)):
            return "%r", col
        if kinds <= {int}:  # a bool is no int here: True is written true
            return "%d", col
        if kinds <= {str}:
            texts = {value: text(value) for value in set(col)}
            return "%s", [*map(texts.__getitem__, col)]
    elif kinds <= {float, np.float64}:
        return floats, col
    return "%s", [*map(text, col)]


def _row_pieces(heads, end: str, shared: dict, per_row: dict, text: Callable,
                array_texts: Callable | None = None, *, floats: str) -> list[str]:
    """The text pieces of one block of rows, each row written as its heads in
    order, each followed by its key's value, then ``end``; none if the block
    has no rows.

    heads is [(key, text before its value)].  A shared value is written into
    the block's %-template once; a per-row list goes in as _template_column
    gives it for the %-spec ``floats`` ('%r' for JSON, '%.9g' for CSV).  The
    block is one piece, from one %, unless it holds a per-row ndarray (the
    JSON spectra), which splits the template and the block into rows:
    ``array_texts`` gives one text per row, kept as a piece of its own.
    """
    rows = len(next(iter(per_row.values())))
    if not rows:
        return []
    parts, fmt, cols = [], "", []
    whole = not any(isinstance(per_row.get(key), np.ndarray) for key, _ in heads)

    def close():
        if whole:
            parts.append([(fmt * rows) % tuple(chain.from_iterable(zip(*cols)))])
        else:
            parts.append([fmt % row for row in zip(*cols)] if cols else [fmt % ()] * rows)

    for key, head in heads:
        fmt += head.replace("%", "%%")
        col = per_row.get(key)
        if key in shared:
            fmt += text(shared[key]).replace("%", "%%")
        elif isinstance(col, np.ndarray):
            close()
            parts.append(array_texts(col))
            fmt, cols = "", []
        else:
            spec, cells = _template_column(col, floats, text)
            fmt += spec
            cols.append(cells)
    fmt += end.replace("%", "%%")
    close()
    return parts[0] if len(parts) == 1 else list(chain.from_iterable(zip(*parts)))


# The row renderers: each file's rows are added block by block as columns,
# (shared, per_row) as _row_pieces takes them, and kept as text pieces.
_ROW_NEWLINE = "\n    "  # a row's indent: an item of a list at the document's top level


class _JsonRows:
    """The rows of a JSON document, a list under its top-level ``key``.

    The pieces are those of json.dumps(doc, indent=2, sort_keys=True).  Each
    row comes from a template of its sorted key heads at the rows' indent.
    Each spectrum's text is memoized under its exact bits and kept as a
    piece of its own, shared by every row that has that spectrum; a new one
    is joined from a table of each probability's text under its 64 bits
    (so -0.0 keeps its own), each rendered once per document.
    """

    text = staticmethod(_json_scalar)  # a scalar cell's text

    def __init__(self, key: str):
        self.key = key
        self.pieces = []
        self._heads = {}  # keys -> a row's key heads
        self._spectra = {}  # row bits -> text
        self._floats = {}  # a float's bits, as an int -> its text

    def add(self, shared: dict, per_row: dict) -> None:
        keys = (*shared, *per_row)
        heads = self._heads.get(keys)
        if heads is None:  # each row opens with the list's separator, "," after the first
            opens = ["," + _ROW_NEWLINE + "{", *[","] * (len(keys) - 1)]
            heads = self._heads[keys] = [
                (key, sep + _ROW_NEWLINE + "  " + encode_basestring_ascii(key) + ": ")
                for sep, key in zip(opens, sorted(keys))
            ]
        first = not self.pieces
        self.pieces += _row_pieces(heads, _ROW_NEWLINE + "}", shared, per_row, self.text,
                                   self._spectrum_texts, floats="%r")
        if first and self.pieces:
            self.pieces[0] = "[" + self.pieces[0][1:]

    def _spectrum_texts(self, probs: np.ndarray) -> list[str]:
        memo, floats, texts = self._spectra, self._floats, []
        newline = _ROW_NEWLINE + "  "
        inner = newline + "  "
        for row in probs:
            key = row.tobytes()  # bits: -0.0 is not 0.0
            text = memo.get(key)
            if text is None:
                bits = row.view(np.uint64).tolist()
                if new := set(bits).difference(floats):
                    values = dict(zip(bits, row.tolist()))
                    floats.update((b, _float_text(values[b])) for b in new)
                items = ("," + inner).join(map(floats.__getitem__, bits))
                text = memo[key] = "[" + inner + items + newline + "]"
            texts.append(text)
        return texts

    def file(self, **head) -> list[str]:
        """The pieces of the document: the schema version, ``head`` and the rows."""
        doc = {"schema_version": SCHEMA_VERSION, **head, self.key: []}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if not self.pieces:
            return [text]
        # only a top-level key opens a line at a two-space indent
        before, entry, after = text.partition(f"\n  {encode_basestring_ascii(self.key)}: []")
        return [before + entry[:-2], *self.pieces, "\n  ]" + after]


class _CsvRows:
    """The rows of a CSV file, after its schema line and ``header``, with the
    columns in the header's order."""

    text = staticmethod(_fmt)

    def __init__(self, header):
        self.pieces = [f"# schema_version={SCHEMA_VERSION}\n" + ",".join(header) + "\n"]
        self._heads = [(key, "," if i else "") for i, key in enumerate(header)]

    def add(self, shared: dict, per_row: dict) -> None:
        self.pieces += _row_pieces(self._heads, "\n", shared, per_row, self.text, floats="%.9g")

    def file(self) -> list[str]:
        return self.pieces


def _renderer(cfg: RunConfig, key: str, header) -> _JsonRows | _CsvRows:
    """The rows of one file in --format: a JSON list under key, or CSV columns in header."""
    return _JsonRows(key) if cfg.format == "json" else _CsvRows(header)


def _table(cfg: RunConfig, stem: str, columns: dict) -> dict[str, list[str]]:
    """One file of one block of rows: {column name: its value in each row}."""
    rows = _renderer(cfg, stem, list(columns))
    rows.add({}, columns)
    return {f"{stem}.{cfg.format}": rows.file()}


# Each command returns its outputs as {file name: its text pieces}; main alone
# writes them, once the command has returned.
def cmd_squeeze_scan(cfg: RunConfig) -> dict[str, list[str]]:
    exponents = _s_range_exponents(cfg.s_range)
    hists = {}
    points = []
    for n in exponents:
        sys = make_spin_system(n)
        res = squeezing.optimize_mu(sys, cfg.tol)
        points.append(squeezing.sweep_row(res))
        if sys.dim >= 8:
            template = squeezing.tail_template(sys.dim)
        else:
            template = [""] * sys.dim  # template needs at least 8 slots
        hist = {"index": range(sys.dim), "probability": res.distribution.tolist(),
                "bound": template}
        hists |= _table(cfg, f"hist_N{sys.dim}", hist)
    header = ["s", "mu_opt", "v_min", "p_c", "overlap"]
    return _table(cfg, "squeeze_scan", {key: [p[key] for p in points] for key in header}) | hists


def cmd_qfunc(cfg: RunConfig) -> dict[str, list[str]]:
    sys = make_spin_system(cfg.n)
    if cfg.state == "squeezed":
        state = squeezing.optimize_mu(sys, cfg.tol).state
    else:
        state = coherent_state(sys, math.pi / 2, 0.0)
    t_steps, p_steps = _grid_shape(cfg.grid)
    grid = q_function(state, sys, t_steps, p_steps)
    stem = f"qfunc_{cfg.state}_N{sys.dim}"
    rows = _renderer(cfg, stem, ["theta", "phi", "q"])
    phis = _Texts(map(rows.text, grid.phis.tolist()))  # rendered once per grid
    for theta, qs in zip(grid.thetas.tolist(), grid.values):
        rows.add({"theta": theta}, {"phi": phis, "q": qs.tolist()})  # its rows share theta
    dist = {"index": range(sys.dim), "probability": state.probabilities().tolist()}
    return {f"{stem}.{cfg.format}": rows.file()} | _table(cfg, f"dist_{cfg.state}_N{sys.dim}", dist)


def _blocks(cfg: RunConfig, dim: int):
    """The instance blocks a solve run decides; sampled ones are drawn lazily
    from the run's one seeded generator, which enumerated runs never make."""
    if cfg.variant == "fourier" or (cfg.variant == "restricted" and dim <= 16):
        return codewords.enumerate_blocks(cfg.variant, dim, cfg.errors)
    rng = np.random.default_rng(cfg.seed)
    if cfg.variant == "restricted":
        return codewords.sample_blocks("restricted", dim, cfg.errors, cfg.trials, rng)
    weight = cfg.errors or 0
    if cfg.error_mode == "random":
        return codewords.sample_blocks("unrestricted", dim, weight, cfg.trials, rng, cfg.reps)
    mask = oracle_circuit.worst_case_error_mask(dim, weight)
    return codewords.sample_blocks("unrestricted", dim, None, cfg.trials, rng, cfg.reps, mask)


def cmd_solve(cfg: RunConfig) -> dict[str, list[str]]:
    if cfg.variant != "unrestricted" and cfg.reps != 1:
        raise ConfigError(
            f"--reps must be 1 for the {cfg.variant} variant, whose decision is exact "
            f"with one query; got {cfg.reps}"
        )
    sys = make_spin_system(cfg.n)
    dim = sys.dim
    extra = {}
    if cfg.variant == "unrestricted" and cfg.error_mode != "random":
        spectrum = oracle_circuit.worst_case_spectrum(dim, cfg.errors or 0)
        extra["worst_case_spectrum"] = spectrum.tolist()
    fourier = cfg.variant == "fourier"
    reports = _renderer(cfg, "reports", oracle_circuit.REPORT_KEYS)
    table = []
    instances = correct = queries = 0  # ints: the summary's ratios are exact sums
    for block, decided in oracle_circuit.decide_blocks(_blocks(cfg, dim)):
        reports.add(*oracle_circuit.report_columns(block, decided))
        rows = len(block.js)
        instances += rows
        correct += int(np.count_nonzero(decided.is_a == block.is_a))
        queries += rows * decided.rounds
        if fourier:  # the raw Pr[designated outcome]; prTop is normalized
            table += decided.raw[:, decided.index].tolist()
    if fourier:
        extra["probability_table"] = table
    stem = f"solve_{cfg.variant}_N{dim}"
    if cfg.format == "csv":
        files = {f"{stem}.csv": reports.file()}
        for key, values in extra.items():  # probability_table, worst_case_spectrum
            index = "j" if key == "probability_table" else "index"
            side = {index: range(len(values)), "probability": values}
            files |= _table(cfg, f"{stem}_{key}", side)
        return files
    summary = {"instances": instances}
    if instances:
        summary["accuracy"] = correct / instances
        summary["mean_queries"] = queries / instances
    config = {
        "variant": cfg.variant,
        "N": dim,
        "errors": cfg.errors,
        "reps": cfg.reps,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "error_mode": cfg.error_mode,
    }
    return {f"{stem}.json": reports.file(command="solve", config=config, summary=summary, **extra)}


def cmd_classical(cfg: RunConfig) -> dict[str, list[str]]:
    if cfg.trials < 1:  # solve may decide 0 trials; a classical row needs one
        raise ConfigError(f"--trials must be >= 1 for classical, got {cfg.trials}")
    exponents = _s_range_exponents(cfg.s_range)
    rng = np.random.default_rng(cfg.seed)
    header = ["N", "quantum_queries", "classical_queries", "classical_min_depth"]
    columns = {key: [] for key in header}
    for n in exponents:
        dim = 2**n
        js = rng.integers(0, dim // 2, size=cfg.trials)
        oracle = classical_baseline.codeword_oracle(dim, js)
        found, queries = classical_baseline.classical_identify(oracle, dim)
        wrong = js[found != js]
        if len(wrong):
            raise InvariantError(f"classical identification failed at N={dim}, j={wrong[0]}")
        depth = (classical_baseline.min_decision_tree_depth(dim)
                 if dim in classical_baseline.BRUTE_FORCE_DIMS else "")
        for key, value in zip(header, (dim, 1, queries, depth)):
            columns[key].append(value)
    return _table(cfg, "classical_comparison", columns)


_COMMANDS = {
    "squeeze-scan": cmd_squeeze_scan,
    "qfunc": cmd_qfunc,
    "solve": cmd_solve,
    "classical": cmd_classical,
}


def main(argv=None) -> int:
    try:
        cfg = load_config(argv)
        files = _COMMANDS[cfg.command](cfg)
        cfg.out.mkdir(parents=True, exist_ok=True)
        for name, pieces in files.items():  # written in order, never joined
            with (cfg.out / name).open("w", newline="\n") as f:
                f.writelines(pieces)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=_sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=_sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 4
    except OSError as exc:  # unreadable --config, --out that cannot be created or written
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 2
    except _HelpAsked as asked:
        print(asked)
        return 0
    for name in files:
        print(cfg.out / name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
