"""Reading and writing theory description files (format tag "optheory/1").

A theory file is a JSON document.  The ``kind`` field selects between:

- ``builtin``: one of the shipped instances (``pfun``, ``substoch``,
  ``mat``, ``cpsu``) with its parameters.  The ``mat`` instance takes a
  semiring, either the name of a builtin carrier or an inline finite
  semiring given by element lists and operation tables.  ``pfun`` is the
  matrices over the naturals with entries 0 and 1, so it takes no grid.
  Only ``cpsu`` loads :mod:`opcheck.instances.cpsu`, and with it numpy.
- ``table``: an explicit finite theory (see :mod:`opcheck.table`), with
  named objects and sizes, named events carrying semiring matrices, an
  optional test list and coarse-graining table, and a discard designation
  per object.  Rational entries are written as strings like ``"1/2"``.
- ``plus``: the direct-sum completion of another theory document, as
  produced by the ``complete`` command, remembering the object bound it
  was generated under and, optionally, listing the probe objects at that
  bound, which must then be the ones the completion has.

``parse_doc`` and ``serialize_theory`` are inverse up to semantic
equivalence: reparsing a serialized document yields the same theory.
"""

from __future__ import annotations

import json
import sys

from . import kernel
from .constructions import PlusTheory, plus_completion
from .errors import TheoryFileError
from .instances import MatrixTheory, PFunTheory, SubStochTheory
from .table import TableTheory

FORMAT = "optheory/1"

BUILTIN_NAMES = ("pfun", "substoch", "mat", "cpsu")

# the keys that ``schemas/optheory.json`` allows in a document of each kind
KIND_KEYS = {
    "builtin": ("format", "kind", "name", "parameters"),
    "table": ("format", "kind", "name", "semiring", "objects", "unit",
              "events", "tests", "coarse_grain", "discards"),
    "plus": ("format", "kind", "base", "bound", "objects"),
}
EVENT_KEYS = ("name", "dom", "cod", "payload")
SEMIRING_KEYS = ("name", "elements", "add", "mul", "zero", "one")


def _require(doc, key, location):
    if not isinstance(doc, dict) or key not in doc:
        raise TheoryFileError(f"missing required key {key!r}", location)
    return doc[key]


def _reject_unknown_keys(doc, allowed, prefix=""):
    for key in doc:
        if key not in allowed:
            raise TheoryFileError(f"unknown key {key!r}", f"{prefix}{key}")


def _parse_semiring(spec, location):
    if isinstance(spec, str):
        if spec not in kernel.BUILTIN_SEMIRINGS:
            raise TheoryFileError(f"unknown semiring {spec!r}", location)
        return kernel.BUILTIN_SEMIRINGS[spec]
    if isinstance(spec, dict):
        _reject_unknown_keys(spec, SEMIRING_KEYS, f"{location}.")
        name = _require(spec, "name", location)
        elements = _require(spec, "elements", location)
        try:
            return kernel.FiniteSemiring.from_tables(
                name, tuple(elements),
                _require(spec, "add", location),
                _require(spec, "mul", location),
                _require(spec, "zero", location),
                _require(spec, "one", location))
        except (ValueError, KeyError, TypeError) as exc:
            raise TheoryFileError(f"invalid semiring table: {exc}",
                                  location) from exc
    raise TheoryFileError("semiring must be a name or an inline table", location)


def _parse_entry(semiring, value, location):
    for candidate in (value, str(value)):
        try:
            return semiring.parse_element(candidate)
        except (ValueError, TypeError):
            continue
    raise TheoryFileError(
        f"cannot read {value!r} as an element of {semiring.name}", location)


def _grid(params, default, override):
    grid = params.get("grid", default)
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 1:
        raise TheoryFileError(f"grid must be an integer >= 1, got {grid!r}",
                              "parameters.grid")
    return grid if override is None else override


def _parse_builtin(doc, grid):
    name = _require(doc, "name", "builtin")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise TheoryFileError("parameters must be an object", "parameters")
    _reject_unknown_keys(params, ("grid", "tol", "semiring"), "parameters.")
    if name == "pfun":
        return PFunTheory()
    if name == "substoch":
        return SubStochTheory(grid=_grid(params, 4, grid))
    if name == "cpsu":
        tol = params.get("tol", kernel.DEFAULT_TOL)
        if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                or not 0 < tol <= sys.float_info.max):
            raise TheoryFileError(
                f"tol must be a finite number > 0, got {tol!r}",
                "parameters.tol")
        from .instances.cpsu import CpsuTheory
        return CpsuTheory(tol=float(tol))
    if name == "mat":
        semiring = _parse_semiring(_require(params, "semiring", "parameters"),
                                   "parameters.semiring")
        return MatrixTheory(semiring, grid=_grid(params, 2, grid))
    raise TheoryFileError(
        f"unknown builtin {name!r}; expected one of {', '.join(BUILTIN_NAMES)}",
        "name")


def _parse_table(doc):
    semiring = _parse_semiring(doc.get("semiring", "rationals01"), "semiring")
    objects = _require(doc, "objects", "objects")
    if not isinstance(objects, dict) or not objects:
        raise TheoryFileError("objects must be a non-empty object of sizes",
                              "objects")
    sizes = {}
    for nm, size in objects.items():
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise TheoryFileError(f"object {nm!r} needs a positive size",
                                  "objects")
        sizes[nm] = size
    unit_name = _require(doc, "unit", "unit")
    if unit_name not in sizes:
        raise TheoryFileError(f"unit {unit_name!r} is not a declared object",
                              "unit")
    homs = {(x, y): [] for x in sizes for y in sizes}
    events = _require(doc, "events", "events")
    for idx, ev in enumerate(events):
        loc = f"events[{idx}]"
        nm = _require(ev, "name", loc)
        dom = _require(ev, "dom", loc)
        cod = _require(ev, "cod", loc)
        if dom not in sizes or cod not in sizes:
            raise TheoryFileError(
                f"event {nm!r} references undeclared object", loc)
        payload = _require(ev, "payload", loc)
        _reject_unknown_keys(ev, EVENT_KEYS, f"{loc}.")
        rows = []
        for i, row in enumerate(payload):
            rows.append(tuple(_parse_entry(semiring, v, f"{loc}.payload[{i}]")
                              for v in row))
        homs[(dom, cod)].append((nm, tuple(rows)))
    discards = _require(doc, "discards", "discards")
    tests = doc.get("tests", {})
    cg = [tuple(entry) for entry in doc.get("coarse_grain", [])]
    name = doc.get("name", "table")
    if not isinstance(name, str):
        raise TheoryFileError(f"name must be a string, got {name!r}", "name")
    return TableTheory(name, semiring, sizes, unit_name,
                       homs, discards, tests=tests, coarse_grain_table=cg)


def parse_doc(doc, grid=None):
    """The theory ``doc`` describes; a matrix builtin on ``grid`` if given."""
    if not isinstance(doc, dict):
        raise TheoryFileError("theory file must be a JSON object", "top level")
    fmt = _require(doc, "format", "format")
    if fmt != FORMAT:
        raise TheoryFileError(f"unsupported format {fmt!r}; expected {FORMAT!r}",
                              "format")
    kind = _require(doc, "kind", "kind")
    if not isinstance(kind, str) or kind not in KIND_KEYS:
        raise TheoryFileError(
            f"unknown kind {kind!r}; expected builtin, table or plus", "kind")
    _reject_unknown_keys(doc, KIND_KEYS[kind])
    if kind == "builtin":
        theory = _parse_builtin(doc, grid)
    elif kind == "table":
        theory = _parse_table(doc)
    else:
        bound = doc.get("bound")
        if bound is not None and (isinstance(bound, bool)
                                  or not isinstance(bound, int) or bound < 0):
            raise TheoryFileError(
                f"bound must be an integer >= 0, got {bound!r}", "bound")
        base = parse_doc(_require(doc, "base", "base"))
        theory = plus_completion(base)
        theory.completion_bound = bound
        if "objects" in doc:
            _check_plus_objects(theory, doc["objects"], bound)
    theory.source_doc = doc
    return theory


def _check_plus_objects(theory, objects, bound):
    """A ``plus`` document's ``objects`` list must name the probe objects of
    its completion at its ``bound``, as :func:`serialize_theory` writes it."""
    if not (isinstance(objects, list)
            and all(isinstance(o, str) for o in objects)):
        raise TheoryFileError(
            f"objects must be a list of strings, got {objects!r}", "objects")
    if bound is None:
        raise TheoryFileError("objects needs a bound", "objects")
    want = [theory.object_str(o) for o in theory.probe_objects(bound)]
    if objects != want:
        raise TheoryFileError(
            f"objects are not the {len(want)} probe objects at bound {bound}",
            "objects")


def load_theory(path, grid=None):
    """The theory in the file at ``path``, built on ``grid`` if given,
    which only a matrix builtin takes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise TheoryFileError(str(exc), path) from exc
    except json.JSONDecodeError as exc:
        raise TheoryFileError(f"invalid JSON: {exc}", path) from exc
    theory = parse_doc(doc, grid)
    if grid is not None and type(theory) not in (MatrixTheory, SubStochTheory):
        raise TheoryFileError("--grid does not apply to this theory", path)
    return theory


def _serialize_semiring(semiring):
    if semiring.name in kernel.BUILTIN_SEMIRINGS:
        return semiring.name
    return {"name": semiring.name,
            "elements": list(semiring.elements),
            "add": [[semiring.add(a, b) for b in semiring.elements]
                    for a in semiring.elements],
            "mul": [[semiring.mul(a, b) for b in semiring.elements]
                    for a in semiring.elements],
            "zero": semiring.zero, "one": semiring.one}


def serialize_theory(theory, bound=None):
    if isinstance(theory, PlusTheory):
        doc = {"format": FORMAT, "kind": "plus",
               "base": serialize_theory(theory.base)}
        use_bound = bound if bound is not None else \
            getattr(theory, "completion_bound", None)
        if use_bound is not None:
            doc["bound"] = use_bound
            doc["objects"] = [theory.object_str(o)
                              for o in theory.probe_objects(use_bound)]
        return doc
    if isinstance(theory, TableTheory):
        s = theory.semiring
        events = []
        for (x, y), entries in sorted(theory.homs.items()):
            for nm, payload in entries:
                events.append({
                    "name": nm, "dom": x, "cod": y,
                    "payload": [[s.element_str(v) for v in row]
                                for row in payload]})
        doc = {"format": FORMAT, "kind": "table", "name": theory.name,
               "semiring": _serialize_semiring(s),
               "objects": dict(theory.sizes), "unit": theory.unit_name,
               "events": events, "discards": dict(theory.discards)}
        if theory.tests:
            doc["tests"] = {k: list(v) for k, v in theory.tests.items()}
        if theory.coarse_grain_table:
            doc["coarse_grain"] = [list(t) for t in theory.coarse_grain_table]
        return doc
    if isinstance(theory, PFunTheory):
        return {"format": FORMAT, "kind": "builtin", "name": "pfun"}
    if isinstance(theory, SubStochTheory):
        return {"format": FORMAT, "kind": "builtin", "name": "substoch",
                "parameters": {"grid": theory.grid}}
    # a CpsuTheory exists only once its module is loaded
    cpsu = sys.modules.get("opcheck.instances.cpsu")
    if cpsu is not None and isinstance(theory, cpsu.CpsuTheory):
        return {"format": FORMAT, "kind": "builtin", "name": "cpsu",
                "parameters": {"tol": theory.tol}}
    if isinstance(theory, MatrixTheory):
        return {"format": FORMAT, "kind": "builtin", "name": "mat",
                "parameters": {"semiring": _serialize_semiring(theory.semiring),
                               "grid": theory.grid}}
    if hasattr(theory, "source_doc"):
        return theory.source_doc
    raise TheoryFileError(
        f"theory {getattr(theory, 'name', theory)!r} is not serializable",
        "serialize")


def save_theory(theory, path, bound=None):
    doc = serialize_theory(theory, bound=bound)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
