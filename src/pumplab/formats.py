"""Instance text formats: a native line-oriented format and an MPS subset.

Native format, one directive per line, LF-terminated:

    pumplab 1
    name <instance name>
    cols <n> <d>
    row <sense> <rhs> [b<j>:<coeff> ...] [c<j>:<coeff> ...]
    objective [pairs...]          (optional; maximization implied)
    block b:<csv> c:<csv> r:<csv> (optional, one per block)
    end

Floats are written with repr so reading back reproduces them bit for bit.
Row-origin maps are not serialized; write instances in their original
sense form.

The MPS reader covers NAME, OBJSENSE (MAX, MAXIMIZE, MIN or MINIMIZE, on
its line or the next), ROWS, COLUMNS (with INTORG/INTEND markers), RHS,
BOUNDS and ENDATA. The first N row is the objective; N rows after it are
free rows, and their COLUMNS and RHS entries are dropped. RANGES, a row
name declared twice (a free row's included) and any other OBJSENSE value
are rejected with a line number. Each BOUNDS line is checked as it is
read, so it must name a column COLUMNS declared before: integer-marked
columns must keep bounds [0,1], and finite bounds on continuous columns
are folded into extra rows because the model keeps continuous columns
free. A negative UP bound on a continuous column whose lower bound no
BOUNDS line has set makes that lower bound -inf, not 0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import FormatError
from .model import Block, LinearRow, MixedBinaryInstance, Objective, Sense


def _fmt(v: float) -> str:
    return repr(float(v))


def _pairs(bin_coeffs, cont_coeffs) -> str:
    parts = [f"b{j}:{_fmt(v)}" for j, v in sorted(bin_coeffs.items())]
    parts += [f"c{j}:{_fmt(v)}" for j, v in sorted(cont_coeffs.items())]
    return " ".join(parts)


def write_native(instance: MixedBinaryInstance) -> str:
    lines = ["pumplab 1", f"name {instance.name}", f"cols {instance.n} {instance.d}"]
    for row in instance.rows:
        pairs = _pairs(row.bin_coeffs, row.cont_coeffs)
        lines.append(f"row {row.sense} {_fmt(row.rhs)}" + (f" {pairs}" if pairs else ""))
    if instance.objective is not None:
        pairs = _pairs(instance.objective.bin_coeffs, instance.objective.cont_coeffs)
        lines.append("objective" + (f" {pairs}" if pairs else ""))
    if instance.blocks is not None:
        for blk in instance.blocks:
            lines.append(
                "block b:%s c:%s r:%s"
                % (
                    ",".join(map(str, blk.bin_idx)),
                    ",".join(map(str, blk.cont_idx)),
                    ",".join(map(str, blk.row_idx)),
                )
            )
    lines.append("end")
    return "\n".join(lines) + "\n"


def _number(text: str, line_no: int, kind=float, token: Optional[str] = None):
    """kind(text), or a FormatError naming the line (and the token text is part of)."""
    try:
        return kind(text)
    except ValueError as exc:
        raise FormatError(f"bad number {text!r}" + (f" in {token!r}" if token else ""), line_no) from exc


def _parse_pairs(tokens, line_no):
    bins: dict[int, float] = {}
    conts: dict[int, float] = {}
    for tok in tokens:
        if ":" not in tok or tok[0] not in "bc":
            raise FormatError(f"bad coefficient token {tok!r}", line_no)
        head, _, val = tok.partition(":")
        idx = _number(head[1:], line_no, int, tok)
        coeff = _number(val, line_no, float, tok)
        (bins if head[0] == "b" else conts)[idx] = coeff
    return bins, conts


def _parse_csv(text, line_no) -> tuple[int, ...]:
    return tuple(_number(x, line_no, int, text) for x in text.split(",")) if text else ()


def read_native(text: str) -> MixedBinaryInstance:
    name = None
    n = d = None
    rows: list[LinearRow] = []
    objective: Optional[Objective] = None
    blocks: list[Block] = []
    saw_end = False
    lines = text.splitlines()
    if not lines or lines[0].split() != ["pumplab", "1"]:
        raise FormatError("missing 'pumplab 1' header", 1)
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if saw_end:
            raise FormatError("content after end", line_no)
        fields = line.split()
        directive = fields[0]
        if directive == "name":
            name = line.partition(" ")[2].strip()
        elif directive == "cols":
            if len(fields) != 3:
                raise FormatError("cols wants two integers", line_no)
            n, d = (_number(f, line_no, int) for f in fields[1:])
        elif directive == "row":
            if len(fields) < 3:
                raise FormatError("row wants a sense and rhs", line_no)
            try:
                sense = Sense(fields[1])
            except ValueError as exc:
                raise FormatError(f"unknown sense {fields[1]!r}", line_no) from exc
            rhs = _number(fields[2], line_no)
            bins, conts = _parse_pairs(fields[3:], line_no)
            rows.append(LinearRow(bins, conts, sense, rhs))
        elif directive == "objective":
            bins, conts = _parse_pairs(fields[1:], line_no)
            objective = Objective(bins, conts)
        elif directive == "block":
            spec = {}
            for tok in fields[1:]:
                key, _, csv = tok.partition(":")
                if key not in ("b", "c", "r"):
                    raise FormatError(f"bad block field {tok!r}", line_no)
                spec[key] = _parse_csv(csv, line_no)
            blocks.append(Block(spec.get("b", ()), spec.get("c", ()), spec.get("r", ())))
        elif directive == "end":
            saw_end = True
        else:
            raise FormatError(f"unknown directive {directive!r}", line_no)
    if not saw_end:
        raise FormatError("missing end line", len(lines))
    if name is None or n is None:
        raise FormatError("missing name or cols line", len(lines))
    return MixedBinaryInstance(
        name=name,
        n=n,
        d=d,
        rows=tuple(rows),
        objective=objective,
        blocks=tuple(blocks) if blocks else None,
    )


# ---------------------------------------------------------------------------
# MPS subset


_SENSE_BY_TAG = {"L": Sense.LE, "G": Sense.GE, "E": Sense.EQ}
_TAG_BY_SENSE = {sense: tag for tag, sense in _SENSE_BY_TAG.items()}
# objective sign per OBJSENSE value; the model always maximizes
_OBJ_SIGN = {"MAX": 1.0, "MAXIMIZE": 1.0, "MIN": -1.0, "MINIMIZE": -1.0}


def parse_mps(text: str) -> MixedBinaryInstance:
    section = None
    name = "mps"
    sign = -1.0
    obj_row: Optional[str] = None
    row_sense: dict[str, Sense] = {}
    # row (objective and free rows included) -> its (binary, continuous) {column index: coeff}
    terms: dict[str, tuple[dict[int, float], dict[int, float]]] = {}
    integer_mode = False
    columns: dict[str, tuple[bool, int]] = {}     # name -> (is continuous, index among its kind)
    col_bounds: tuple[list, list] = ([], [])      # [lo, up] per binary, per continuous column
    rhs: dict[str, float] = {}
    lower_set: set[str] = set()                   # columns whose lower bound a BOUNDS line set

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        fields = raw.split()
        if is_header:
            section = fields[0].upper()
            if section == "NAME":
                if len(fields) > 1:
                    name = fields[1]
            elif section == "RANGES":
                raise FormatError("RANGES section not supported", line_no)
            elif section not in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA", "OBJSENSE"):
                raise FormatError(f"unsupported section {section!r}", line_no)
            if section != "OBJSENSE" or len(fields) == 1:
                continue
            fields = fields[1:]     # the sense may follow OBJSENSE on its line
        if section == "OBJSENSE":
            if fields[0].upper() not in _OBJ_SIGN:
                raise FormatError(f"unknown OBJSENSE {fields[0]!r}", line_no)
            sign = _OBJ_SIGN[fields[0].upper()]
        elif section == "ROWS":
            if len(fields) != 2:
                raise FormatError("rows line wants 'type name'", line_no)
            tag, rname = fields[0].upper(), fields[1]
            if tag != "N" and tag not in _SENSE_BY_TAG:
                raise FormatError(f"unknown row type {tag!r}", line_no)
            if rname in terms:
                raise FormatError(f"row {rname!r} declared twice", line_no)
            if tag != "N":
                row_sense[rname] = _SENSE_BY_TAG[tag]
            elif obj_row is None:
                obj_row = rname
            terms[rname] = ({}, {})     # a later N row is a free row, and no row of the instance
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1].strip("'\"").upper() == "MARKER":
                marker = fields[2].strip("'\"").upper()
                integer_mode = marker == "INTORG"
                continue
            if len(fields) < 3 or len(fields) % 2 == 0:
                raise FormatError("columns line wants 'col row val [row val]'", line_no)
            if fields[0] not in columns:
                is_cont = not integer_mode
                columns[fields[0]] = (is_cont, len(col_bounds[is_cont]))
                col_bounds[is_cont].append([0.0, np.inf if is_cont else 1.0])
            is_cont, j = columns[fields[0]]
            for i in range(1, len(fields), 2):
                rname, val = fields[i], _number(fields[i + 1], line_no)
                if rname not in terms:
                    raise FormatError(f"entry for undeclared row {rname!r}", line_no)
                coeffs = terms[rname][is_cont]
                coeffs[j] = coeffs.get(j, 0.0) + val
        elif section == "RHS":
            if len(fields) < 3 or len(fields) % 2 == 0:
                raise FormatError("rhs line wants 'set row val [row val]'", line_no)
            for i in range(1, len(fields), 2):
                if fields[i] not in terms:
                    raise FormatError(f"rhs for undeclared row {fields[i]!r}", line_no)
                rhs[fields[i]] = _number(fields[i + 1], line_no)
        elif section == "BOUNDS":
            tag = fields[0].upper()
            if tag in ("FR", "MI", "PL", "BV"):
                if len(fields) < 3:
                    raise FormatError("bounds line wants 'type set col'", line_no)
                val = None
            elif tag in ("UP", "LO", "FX", "UI"):
                if len(fields) < 4:
                    raise FormatError("bounds line wants 'type set col val'", line_no)
                val = _number(fields[3], line_no)
            else:
                raise FormatError(f"unknown bound type {tag!r}", line_no)
            cname = fields[2]
            if cname not in columns:
                raise FormatError(f"bounds for unknown column {cname!r}", line_no)
            is_cont, j = columns[cname]
            bounds = col_bounds[is_cont][j]
            if tag in ("BV", "UI") and is_cont:
                raise FormatError(f"bound type {tag!r} not valid for continuous column", line_no)
            if tag in ("FR", "MI", "LO", "FX"):
                bounds[0] = val if tag in ("LO", "FX") else -np.inf
                lower_set.add(cname)
            elif tag == "UP" and val < 0 and cname not in lower_set:
                bounds[0] = -np.inf     # a negative UP frees a lower bound no line has set
            if tag in ("FR", "PL", "UP", "FX", "UI"):
                bounds[1] = val if tag in ("UP", "FX", "UI") else np.inf
            if not is_cont and bounds != [0.0, 1.0]:
                raise FormatError(f"column {cname!r} is integer but not binary (bound {tag} {val})", line_no)
        elif section == "ENDATA":
            pass
        elif section is None:
            raise FormatError("data before any section header", line_no)
        else:
            raise FormatError(f"unsupported section {section!r}", line_no)

    if not columns:
        raise FormatError("empty COLUMNS section", len(lines))

    rows = [LinearRow(*terms[rname], sense, rhs.get(rname, 0.0)) for rname, sense in row_sense.items()]
    # the model keeps continuous columns free: finite bounds become rows
    for j, (lo, up) in enumerate(col_bounds[True]):
        if np.isfinite(lo):
            rows.append(LinearRow({}, {j: -1.0}, Sense.LE, -lo))
        if np.isfinite(up):
            rows.append(LinearRow({}, {j: 1.0}, Sense.LE, up))
    # zeros dropped first: an objective row of zeros gives no objective
    ob, oc = ({j: sign * v for j, v in part.items() if v != 0.0} for part in terms.get(obj_row, ({}, {})))
    return MixedBinaryInstance(
        name=name,
        n=len(col_bounds[False]),
        d=len(col_bounds[True]),
        rows=tuple(rows),
        objective=Objective(ob, oc) if ob or oc else None,
    )


def _write_columns(lines: list[str], bounds: list[str], prefix: str, bound: str, col_terms, empty_row: str):
    """Each column's COLUMNS entries into lines and its BOUNDS line into bounds."""
    for j, col in enumerate(col_terms):
        # a column in no row still needs one entry to be declared
        for rname, val in col or [(empty_row, 0.0)]:
            lines.append(f"    {prefix}{j} {rname} {_fmt(val)}")
        bounds.append(f" {bound} BND {prefix}{j}")


def write_mps(instance: MixedBinaryInstance) -> str:
    lines = [f"NAME {instance.name}"]
    named = [(f"R{r}", row) for r, row in enumerate(instance.rows)]
    if instance.objective is not None:
        lines += ["OBJSENSE", "    MAX"]
        named.insert(0, ("OBJ", instance.objective))
    lines.append("ROWS")
    if instance.objective is not None or not instance.rows:
        lines.append(" N  OBJ")
    rhs = ["RHS"]
    for r, row in enumerate(instance.rows):
        lines.append(f" {_TAG_BY_SENSE[row.sense]}  R{r}")
        if row.rhs != 0.0:
            rhs.append(f"    RHS R{r} {_fmt(row.rhs)}")
    # each binary and continuous column's (row, coeff) terms, the objective first
    col_terms = ([[] for _ in range(instance.n)], [[] for _ in range(instance.d)])
    for rname, coeffs in named:
        for kind_terms, part in zip(col_terms, (coeffs.bin_coeffs, coeffs.cont_coeffs)):
            for j, val in part.items():
                kind_terms[j].append((rname, val))
    empty_row = "R0" if instance.rows else "OBJ"
    bounds = ["BOUNDS"]
    lines.append("COLUMNS")
    if instance.n:
        lines.append("    M1 'MARKER' 'INTORG'")
        _write_columns(lines, bounds, "x", "BV", col_terms[0], empty_row)
        lines.append("    M1 'MARKER' 'INTEND'")
    _write_columns(lines, bounds, "y", "FR", col_terms[1], empty_row)
    lines += rhs + bounds + ["ENDATA"]
    return "\n".join(lines) + "\n"
