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

The MPS reader covers NAME, OBJSENSE, ROWS, COLUMNS (with INTORG/INTEND
markers), RHS, BOUNDS and ENDATA. Integer-marked columns must come out
with bounds [0,1]; finite bounds on continuous columns are folded into
extra rows because the model keeps continuous columns free. RANGES is
rejected with a line number.
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


def parse_mps(text: str) -> MixedBinaryInstance:
    section = None
    name = "mps"
    objsense = "MIN"
    obj_row: Optional[str] = None
    row_sense: dict[str, Sense] = {}
    row_order: list[str] = []
    integer_mode = False
    col_kind: dict[str, bool] = {}        # name -> is integer
    col_order: list[str] = []
    entries: dict[str, dict[str, float]] = {}
    rhs: dict[str, float] = {}
    bounds: dict[str, list[tuple[str, Optional[float], int]]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
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
            elif section == "OBJSENSE" and len(fields) > 1:
                objsense = fields[1].upper()
            elif section not in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA", "OBJSENSE"):
                raise FormatError(f"unsupported section {section!r}", line_no)
            continue
        if section == "OBJSENSE":
            objsense = fields[0].upper()
        elif section == "ROWS":
            if len(fields) != 2:
                raise FormatError("rows line wants 'type name'", line_no)
            tag, rname = fields[0].upper(), fields[1]
            if tag == "N":
                if obj_row is None:
                    obj_row = rname
            elif tag in _SENSE_BY_TAG:
                row_sense[rname] = _SENSE_BY_TAG[tag]
                row_order.append(rname)
            else:
                raise FormatError(f"unknown row type {tag!r}", line_no)
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1].strip("'\"").upper() == "MARKER":
                marker = fields[2].strip("'\"").upper()
                integer_mode = marker == "INTORG"
                continue
            if len(fields) < 3 or len(fields) % 2 == 0:
                raise FormatError("columns line wants 'col row val [row val]'", line_no)
            cname = fields[0]
            if cname not in col_kind:
                col_kind[cname] = integer_mode
                col_order.append(cname)
            for i in range(1, len(fields), 2):
                rname, val = fields[i], _number(fields[i + 1], line_no)
                if rname != obj_row and rname not in row_sense:
                    raise FormatError(f"entry for undeclared row {rname!r}", line_no)
                entries.setdefault(cname, {})
                entries[cname][rname] = entries[cname].get(rname, 0.0) + val
        elif section == "RHS":
            if len(fields) < 3 or len(fields) % 2 == 0:
                raise FormatError("rhs line wants 'set row val [row val]'", line_no)
            for i in range(1, len(fields), 2):
                if fields[i] != obj_row and fields[i] not in row_sense:
                    raise FormatError(f"rhs for undeclared row {fields[i]!r}", line_no)
                rhs[fields[i]] = _number(fields[i + 1], line_no)
        elif section == "BOUNDS":
            tag = fields[0].upper()
            if tag in ("FR", "MI", "PL", "BV"):
                if len(fields) < 3:
                    raise FormatError("bounds line wants 'type set col'", line_no)
                bounds.setdefault(fields[2], []).append((tag, None, line_no))
            elif tag in ("UP", "LO", "FX", "UI"):
                if len(fields) < 4:
                    raise FormatError("bounds line wants 'type set col val'", line_no)
                bounds.setdefault(fields[2], []).append((tag, _number(fields[3], line_no), line_no))
            else:
                raise FormatError(f"unknown bound type {tag!r}", line_no)
        elif section == "ENDATA":
            pass
        elif section is None:
            raise FormatError("data before any section header", line_no)
        else:
            raise FormatError(f"unsupported section {section!r}", line_no)

    if not col_order:
        raise FormatError("empty COLUMNS section", 0)

    bin_names = [c for c in col_order if col_kind[c]]
    cont_names = [c for c in col_order if not col_kind[c]]
    bin_index = {c: j for j, c in enumerate(bin_names)}
    cont_index = {c: j for j, c in enumerate(cont_names)}

    # binary columns must come out [0,1]; continuous bounds become rows
    cont_lo = {c: 0.0 for c in cont_names}
    cont_up = {c: np.inf for c in cont_names}
    for cname, blist in bounds.items():
        if cname not in col_kind:
            raise FormatError(f"bounds for unknown column {cname!r}", blist[0][2])
        for tag, val, line_no in blist:
            if col_kind[cname]:
                if tag == "BV" or (tag in ("UP", "UI") and val == 1.0) or (tag == "LO" and val == 0.0):
                    continue
                raise FormatError(
                    f"column {cname!r} is integer but not binary (bound {tag} {val})", line_no
                )
            if tag == "FR":
                cont_lo[cname], cont_up[cname] = -np.inf, np.inf
            elif tag == "MI":
                cont_lo[cname] = -np.inf
            elif tag == "PL":
                cont_up[cname] = np.inf
            elif tag == "UP":
                cont_up[cname] = val
            elif tag == "LO":
                cont_lo[cname] = val
            elif tag == "FX":
                cont_lo[cname] = cont_up[cname] = val
            else:
                raise FormatError(f"bound type {tag!r} not valid for continuous column", line_no)

    rows: list[LinearRow] = []
    for rname in row_order:
        bins: dict[int, float] = {}
        conts: dict[int, float] = {}
        for cname, vals in entries.items():
            if rname in vals:
                if col_kind[cname]:
                    bins[bin_index[cname]] = vals[rname]
                else:
                    conts[cont_index[cname]] = vals[rname]
        rows.append(LinearRow(bins, conts, row_sense[rname], rhs.get(rname, 0.0)))
    for cname in cont_names:
        j = cont_index[cname]
        if np.isfinite(cont_lo[cname]):
            rows.append(LinearRow({}, {j: -1.0}, Sense.LE, -cont_lo[cname]))
        if np.isfinite(cont_up[cname]):
            rows.append(LinearRow({}, {j: 1.0}, Sense.LE, cont_up[cname]))

    objective = None
    if obj_row is not None:
        sign = 1.0 if objsense.startswith("MAX") else -1.0
        ob: dict[int, float] = {}
        oc: dict[int, float] = {}
        for cname, vals in entries.items():
            if obj_row in vals and vals[obj_row] != 0.0:
                if col_kind[cname]:
                    ob[bin_index[cname]] = sign * vals[obj_row]
                else:
                    oc[cont_index[cname]] = sign * vals[obj_row]
        if ob or oc:
            objective = Objective(ob, oc)

    return MixedBinaryInstance(
        name=name,
        n=len(bin_names),
        d=len(cont_names),
        rows=tuple(rows),
        objective=objective,
    )


def write_mps(instance: MixedBinaryInstance) -> str:
    lines = [f"NAME {instance.name}"]
    has_obj_row = instance.objective is not None or not instance.rows
    if instance.objective is not None:
        lines += ["OBJSENSE", "    MAX"]
    lines.append("ROWS")
    if has_obj_row:
        lines.append(" N  OBJ")
    tag = {Sense.LE: "L", Sense.GE: "G", Sense.EQ: "E"}
    for r, row in enumerate(instance.rows):
        lines.append(f" {tag[row.sense]}  R{r}")
    lines.append("COLUMNS")
    if instance.n:
        lines.append("    M1 'MARKER' 'INTORG'")
        for j in range(instance.n):
            terms = []
            if instance.objective is not None and j in instance.objective.bin_coeffs:
                terms.append(("OBJ", instance.objective.bin_coeffs[j]))
            for r, row in enumerate(instance.rows):
                if j in row.bin_coeffs:
                    terms.append((f"R{r}", row.bin_coeffs[j]))
            if not terms:
                terms.append(("R0" if instance.rows else "OBJ", 0.0))
            for rname, val in terms:
                lines.append(f"    x{j} {rname} {_fmt(val)}")
        lines.append("    M1 'MARKER' 'INTEND'")
    for j in range(instance.d):
        terms = []
        if instance.objective is not None and j in instance.objective.cont_coeffs:
            terms.append(("OBJ", instance.objective.cont_coeffs[j]))
        for r, row in enumerate(instance.rows):
            if j in row.cont_coeffs:
                terms.append((f"R{r}", row.cont_coeffs[j]))
        if not terms:
            terms.append(("R0" if instance.rows else "OBJ", 0.0))
        for rname, val in terms:
            lines.append(f"    y{j} {rname} {_fmt(val)}")
    lines.append("RHS")
    for r, row in enumerate(instance.rows):
        if row.rhs != 0.0:
            lines.append(f"    RHS R{r} {_fmt(row.rhs)}")
    lines.append("BOUNDS")
    for j in range(instance.n):
        lines.append(f" BV BND x{j}")
    for j in range(instance.d):
        lines.append(f" FR BND y{j}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
