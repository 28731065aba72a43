"""Line-oriented arrangement file format.

Grammar (one item per line, '#' starts a comment anywhere):

    label NAME                  optional
    dim N                       required, before any hyperplane line
    weyl S2xS3x...              optional Weyl block layout
    project-zero-sum blocks=B1,B2,...
                                optional; declares the file's coordinates as
                                ambient zero-sum blocks to be essentialized
    h c1 c2 ... cN [T|F]        one hyperplane; entries integers or a/b

Files written by emit_arrangement are in essential coordinates (canonical
form); parse o emit is the identity on canonical files.
"""

from fractions import Fraction

from .errors import EmptyBody, ParseError, ZeroCovector
from .generators import project_zero_sum
from .lattice import Arrangement


def parse_weyl_token(token):
    parts = token.split("x")
    blocks = []
    for p in parts:
        if not p.startswith("S") or not p[1:].isdigit():
            raise ValueError("bad weyl factor %r" % p)
        m = int(p[1:])
        if m < 1:
            raise ValueError("weyl factor size must be >= 1")
        blocks.append(m)
    return tuple(blocks)


def format_weyl(blocks):
    return "x".join("S%d" % m for m in blocks)


def parse_arrangement_with_warnings(text):
    """Parse the format above; returns (Arrangement, list of warnings)."""
    dim = None
    weyl = None
    label = None
    blocks = None
    covectors = []
    linenos = []
    tags = []
    warnings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0]
        if head == "dim":
            if dim is not None:
                raise ParseError("duplicate dim directive", lineno)
            if len(fields) != 2 or not fields[1].isdigit():
                raise ParseError("dim needs one integer argument", lineno)
            dim = int(fields[1])
        elif head == "label":
            if len(fields) != 2:
                raise ParseError("label needs one argument", lineno)
            label = fields[1]
        elif head == "weyl":
            if len(fields) != 2:
                raise ParseError("weyl needs one argument", lineno)
            try:
                weyl = parse_weyl_token(fields[1])
            except ValueError as e:
                raise ParseError(str(e), lineno)
        elif head == "project-zero-sum":
            if len(fields) != 2 or not fields[1].startswith("blocks="):
                raise ParseError(
                    "project-zero-sum needs a blocks=... argument", lineno)
            try:
                blocks = tuple(int(x) for x in
                               fields[1][len("blocks="):].split(","))
            except ValueError:
                raise ParseError("bad blocks list", lineno)
            if not blocks or any(b < 1 for b in blocks):
                raise ParseError("block sizes must be >= 1", lineno)
        elif head == "h":
            if dim is None:
                raise ParseError("hyperplane line before dim directive",
                                 lineno)
            entries = fields[1:]
            tag = None
            if entries and entries[-1] in ("T", "F"):
                tag = entries[-1]
                entries = entries[:-1]
            if len(entries) != dim:
                raise ParseError(
                    "expected %d entries, got %d" % (dim, len(entries)),
                    lineno)
            try:
                cov = tuple(Fraction(e) for e in entries)
            except (ValueError, ZeroDivisionError):
                raise ParseError("bad covector entry", lineno)
            if all(x == 0 for x in cov):
                raise ParseError("zero covector", lineno)
            covectors.append(cov)
            linenos.append(lineno)
            tags.append(tag)
        else:
            raise ParseError("unknown directive %r" % head, lineno)
    if dim is None:
        raise ParseError("missing dim directive")
    if not covectors:
        raise EmptyBody("no hyperplane lines")
    tagged = [t is not None for t in tags]
    if any(tagged) and not all(tagged):
        raise ParseError("either every hyperplane line carries a T/F tag "
                         "or none does")
    use_tags = tags if all(tagged) else None
    if blocks is not None:
        if sum(blocks) != dim:
            raise ParseError("blocks %s do not sum to dim %d"
                             % (",".join(map(str, blocks)), dim))
        if weyl is not None and weyl != blocks:
            raise ParseError("weyl layout conflicts with zero-sum blocks")
        weyl = blocks
        projected = []
        for cov, lineno in zip(covectors, linenos):
            try:
                projected.append(project_zero_sum(cov, blocks))
            except ZeroCovector:
                raise ParseError("covector projects to zero under "
                                 "project-zero-sum", lineno)
        covectors = projected
        dim = sum(b - 1 for b in blocks)
    if weyl is not None and sum(m - 1 for m in weyl) != dim:
        raise ParseError("weyl layout %s does not match dimension %d"
                         % (format_weyl(weyl), dim))
    before = len(covectors)
    arr = Arrangement(dim, covectors, label=label, tags=use_tags, weyl=weyl)
    dupes = before - len(arr.hyperplanes)
    if dupes:
        warnings.append("%d duplicate hyperplane line%s dropped"
                        % (dupes, "" if dupes == 1 else "s"))
    return arr, warnings


def parse_arrangement(text):
    arr, _ = parse_arrangement_with_warnings(text)
    return arr


def emit_arrangement(arr):
    """Canonical essential-coordinate file for an arrangement."""
    lines = []
    if arr.label:
        lines.append("label %s" % arr.label)
    lines.append("dim %d" % arr.dim)
    if arr.weyl:
        lines.append("weyl %s" % format_weyl(arr.weyl))
    for i, c in enumerate(arr.hyperplanes):
        body = "h " + " ".join(str(x) for x in c)
        if arr.tags is not None:
            body += " " + arr.tags[i]
        lines.append(body)
    return "\n".join(lines) + "\n"
