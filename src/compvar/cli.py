"""Command-line surface.

Every subcommand reads JSON inputs (see schemas), runs one computation, and
emits a text report on stdout -- mirroring the notation T_X(Comp),
T_X(G.X), Hom_{D^b}(X,X[1]) -- or the JSON report with ``--json``.  JSON
reports carry the input digests, all computed dimensions, the verdicts, the
seed, and the package version, and are byte-stable under re-runs with the
same seed.

Exit codes: 0 success, 1 validation failure, 2 unsupported characteristic,
3 budget exceeded, 4 I/O or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys

from . import __version__
from .complexes import classify, homology_dims, is_acyclic
from .derived import acyclic_splitter, derived_hom
from .errors import (BudgetExceeded, CompvarError, MissingIdempotents,
                     SchemaError, UnsupportedCharacteristic,
                     ValidationFailure)
from .scan import ScanBudget, enumerate_points, orbit_census, rigid_census
from .schemas import complex_to_json, load_json, parse_algebra, parse_complex
from .tangent import tangent_and_orbit, verify_theorem7, voigt_check

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNSUPPORTED = 2
EXIT_BUDGET = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """Usage problems map to the I/O exit code instead of argparse's own."""

    def error(self, message):
        raise SchemaError(message)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_inputs(args, names):
    """Read, hash, and parse the requested input files."""
    inputs = {}
    algebra = None
    complexes = {}
    for name in names:
        path = getattr(args, name.replace("-", "_"), None)
        if path is None:
            continue
        inputs[name] = {"path": path, "sha256": _digest(path)}
    if "algebra" in inputs:
        algebra = parse_algebra(load_json(inputs["algebra"]["path"]))
    for name in names:
        if name in ("algebra",) or name not in inputs:
            continue
        complexes[name] = parse_complex(
            load_json(inputs[name]["path"]), algebra,
            require_differentials=(name != "pin"))
    return inputs, algebra, complexes


def _base_report(command: str, args, inputs: dict, algebra) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "inputs": inputs,
        "field": str(algebra.field),
    }


def _dims_list(x) -> list:
    return list(x.dims())


# -- subcommand handlers ---------------------------------------------------------

def _cmd_validate(args):
    inputs, algebra, cxs = _load_inputs(args, ["algebra", "complex"])
    x = cxs["complex"]
    try:
        cls = classify(x)
        proj, almost = cls.is_projective_complex, cls.is_almost_projective
        class_line = (f"classification: projective={proj}, "
                      f"almost projective={almost}")
    except MissingIdempotents:
        # validation itself needs no idempotent data; only the projectivity
        # classification does (quiver-form algebras carry it)
        proj = almost = None
        class_line = ("classification: unavailable for this algebra form "
                      "(needs a quiver presentation)")
    report = _base_report("validate", args, inputs, algebra)
    report.update({
        "algebra_dim": algebra.dim,
        "dims": _dims_list(x),
        "total_dim": x.total_dim(),
        "left_degree": x.left_degree(),
        "homology_dims": list(homology_dims(x)),
        "euler_characteristic": x.euler_characteristic(),
        "projective_complex": proj,
        "almost_projective": almost,
        "verdict": "valid",
    })
    text = [
        f"algebra: dim {algebra.dim} over {algebra.field}",
        f"complex: dims {report['dims']}, conditions (α), (β), (γ) hold",
        f"homology dims (top first): {report['homology_dims']}",
        class_line,
    ]
    return report, text


def _cmd_tangent(args):
    inputs, algebra, cxs = _load_inputs(args, ["algebra", "complex"])
    x = cxs["complex"]
    _layout, tspace, orbit, stab = tangent_and_orbit(x)
    report = _base_report("tangent", args, inputs, algebra)
    report.update({
        "dims": _dims_list(x),
        "tangent_dim": tspace.dim,
        "orbit_dim": orbit.dim,
        "stabilizer_lie_dim": stab,
        "quotient": tspace.dim - orbit.dim,
        "verdict": "computed",
    })
    text = [
        f"dim T_X(Comp^A_d) = {tspace.dim}",
        f"dim T_X(G.X)      = {orbit.dim}",
        f"stabilizer Lie dim = {stab}",
        f"quotient dim T_X(Comp)/T_X(G.X) = {report['quotient']}",
    ]
    return report, text


def _cmd_theorem7(args):
    inputs, algebra, cxs = _load_inputs(args, ["algebra", "complex"])
    x = cxs["complex"]
    result = verify_theorem7(x)
    report = _base_report("theorem7", args, inputs, algebra)
    report["dims"] = _dims_list(x)
    report.update(result)
    rel = "=" if result["verdict"] == "equality" else "<="
    text = [
        f"dim T_X(Comp^A_d) = {result['tangent_dim']}",
        f"dim T_X(G.X)      = {result['orbit_dim']}",
        f"quotient          = {result['quotient']}",
        f"dim Hom_{{D^b}}(X,X[1]) = {result['derived_hom_dim']}",
        f"verdict: {result['verdict']} "
        f"({result['quotient']} {rel} {result['derived_hom_dim']})",
    ]
    return report, text


def _cmd_derived_hom(args):
    names = ["algebra", "complex"] + (["other"] if args.other else [])
    inputs, algebra, cxs = _load_inputs(args, names)
    x = cxs["complex"]
    y = cxs.get("other", x)
    n = args.shift
    replacement, hom = derived_hom(x, y, n)
    report = _base_report("derived-hom", args, inputs, algebra)
    report.update({
        "dims": _dims_list(x),
        "other_dims": _dims_list(y),
        "shift": n,
        "replacement_dims": _dims_list(replacement),
        "chain_map_dim": hom.chainmaps.dim,
        "nullhomotopic_dim": hom.nullhomotopic.dim,
        "derived_hom_dim": hom.hom_dim,
        "verdict": "computed",
    })
    target = "X" if y is x else "Y"
    text = [
        f"projective replacement dims: {report['replacement_dims']}",
        f"dim Hom_{{D^b}}(X,{target}[{n}]) = {hom.hom_dim} "
        f"(chain maps {hom.chainmaps.dim}, null-homotopic "
        f"{hom.nullhomotopic.dim})",
    ]
    return report, text


def _cmd_strip_acyclic(args):
    inputs, algebra, cxs = _load_inputs(args, ["algebra", "complex"])
    x = cxs["complex"]
    result = acyclic_splitter(x)
    report = _base_report("strip-acyclic", args, inputs, algebra)
    report.update({
        "dims": _dims_list(x),
        "kept_dims": _dims_list(result.xe),
        "stripped_dims": _dims_list(result.xcomp),
        "homology_dims": list(homology_dims(x)),
        "split_ideal_dim": result.ideal_dim,
        "stripped_acyclic": is_acyclic(result.xcomp),
        "kept_complex": complex_to_json(result.xe),
        "verdict": "split",
    })
    text = [
        f"X ≃ Xe ⊕ Xcomp with Xcomp acyclic",
        f"Xe dims    = {report['kept_dims']}",
        f"Xcomp dims = {report['stripped_dims']}",
        f"homology dims (top first): {report['homology_dims']}",
        f"idempotent split off a {result.ideal_dim}-dimensional ideal",
    ]
    return report, text


def _cmd_voigt(args):
    inputs, algebra, cxs = _load_inputs(args, ["algebra", "complex"])
    x = cxs["complex"]
    if x.top != 0:
        raise ValidationFailure(
            "voigt expects a single module: a complex file with m = 0")
    result = voigt_check(x.term(0), degree=args.degree)
    report = _base_report("voigt", args, inputs, algebra)
    report.update(result)
    report["verdict"] = "equality" if result["equality"] else "bounded"
    text = [
        f"module dim = {result['module_dim']}, placed in degree "
        f"{result['degree']}",
        f"dim T_M(mod_A) = {result['tangent_dim']}",
        f"dim T_M(G.M)   = {result['orbit_dim']}",
        f"quotient {result['quotient']} ≤ dim Ext^1_A(M,M) = "
        f"{result['ext1_dim']}"
        + (" (equality)" if result["equality"] else ""),
    ]
    return report, text


def _integer(text: str, pattern: str = "[+-]?[0-9]+") -> int:
    """int() of ASCII digits only; int() itself also takes '1_0', other
    scripts' digits and surrounding spaces."""
    if not re.fullmatch(pattern, text):
        raise argparse.ArgumentTypeError(f"expected an integer ({pattern}), got {text!r}")
    return int(text)


def _parse_dims(text: str) -> tuple:
    if not re.fullmatch("[0-9]+(,[0-9]+)*", text):
        raise SchemaError(f"--dims expects comma-separated non-negative integers, got {text!r}")
    return tuple(map(int, text.split(",")))


def _positive_int(text: str) -> int:
    n = _integer(text, "[0-9]+")
    if n == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _pin_modules(algebra, cxs, dims):
    if "pin" not in cxs:
        return None
    pin = cxs["pin"]
    if pin.dims() != dims:
        raise ValidationFailure(
            f"pin file dims {list(pin.dims())} do not match --dims {list(dims)}")
    return tuple(pin.term(i) for i in range(pin.top, pin.bottom - 1, -1))


def _census_common(args):
    names = ["algebra"] + (["pin"] if args.pin else [])
    inputs, algebra, cxs = _load_inputs(args, names)
    dims = _parse_dims(args.dims)
    budget = ScanBudget(max_points=args.max_points, seed=args.seed)
    return inputs, algebra, dims, budget, _pin_modules(algebra, cxs, dims)


def _census_report(command, args, inputs, algebra, dims, pinned, census):
    """Report fields and header line shared by census and rigid-scan."""
    report = _base_report(command, args, inputs, algebra)
    report.update({
        "label": "finite-field census",
        "dims": list(dims),
        "pinned": pinned is not None,
        "point_count": census.point_count,
        "orbit_count": census.class_count,
        "class_sizes": [len(c) for c in census.classes],
        "group_order": census.group_order,
        "group_checked": True,
        "verdict": "computed",
    })
    header = (f"finite-field census over {algebra.field}, d = {list(dims)}"
              + (" (modules pinned)" if pinned is not None else ""))
    return report, header


def _cmd_census(args):
    inputs, algebra, dims, budget, pinned = _census_common(args)
    points = enumerate_points(algebra, dims, budget, pinned_modules=pinned)
    census = orbit_census(points, algebra, dims, budget)
    report, header = _census_report("census", args, inputs, algebra, dims,
                                    pinned, census)
    text = [
        header,
        f"points: {census.point_count}",
        f"orbits: {census.class_count} with sizes {report['class_sizes']}",
        f"|G| = {census.group_order}; classes are G-orbits by generator "
        "closure and search, representatives pairwise non-isomorphic",
    ]
    return report, text


def _cmd_rigid_scan(args):
    inputs, algebra, dims, budget, pinned = _census_common(args)
    result = rigid_census(algebra, dims, budget, pinned_modules=pinned)
    census = result.census
    report, header = _census_report("rigid-scan", args, inputs, algebra, dims,
                                    pinned, census)
    report.update({
        "almost_projective_classes": list(result.almost_projective_classes),
        "rigid_classes": list(result.rigid_classes),
        "rigid_class_count": result.rigid_class_count,
        "rigid_class_sizes": [len(census.classes[c])
                              for c in result.rigid_classes],
    })
    text = [
        header,
        f"points: {census.point_count}, orbits: {census.class_count}",
        f"almost projective classes: "
        f"{len(result.almost_projective_classes)}",
        f"rigid classes (Hom_{{D^b}}(X,X[1]) = 0): "
        f"{result.rigid_class_count}",
        "every rigid class has an open orbit (quotient dim 0)",
    ]
    return report, text


_HANDLERS = {
    "validate": _cmd_validate,
    "tangent": _cmd_tangent,
    "theorem7": _cmd_theorem7,
    "derived-hom": _cmd_derived_hom,
    "rigid-scan": _cmd_rigid_scan,
    "strip-acyclic": _cmd_strip_acyclic,
    "voigt": _cmd_voigt,
    "census": _cmd_census,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="compvar",
        description="Exact-arithmetic geometry of chain-complex varieties "
                    "over finite-dimensional algebras.")
    parser.add_argument("--version", action="version",
                        version=f"compvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_complex=True):
        p.add_argument("--algebra", required=True,
                       help="algebra JSON file")
        if needs_complex:
            p.add_argument("--complex", required=True,
                           help="complex JSON file")
        p.add_argument("--seed", type=_integer, default=0,
                       help="seed for randomized searches (default 0)")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report instead of text")
        p.add_argument("--report-dir", default=None,
                       help="also write the JSON report into this directory")

    common(sub.add_parser("validate",
                          help="check the variety conditions (α), (β), (γ)"))
    common(sub.add_parser("tangent",
                          help="tangent space, orbit tangent, quotient"))
    common(sub.add_parser("theorem7",
                          help="compare the tangent quotient with "
                               "Hom_{D^b}(X,X[1])"))
    p = sub.add_parser("derived-hom",
                       help="dim Hom_{D^b}(X,Y[n]) via projective replacement")
    common(p)
    p.add_argument("--other", default=None,
                   help="second complex JSON file (default: X itself)")
    p.add_argument("--shift", type=_integer, default=1,
                   help="shift n (default 1)")
    common(sub.add_parser("strip-acyclic",
                          help="split off the maximal acyclic direct summand"))
    p = sub.add_parser("voigt",
                       help="module-variety tangent quotient vs Ext^1")
    common(p)
    p.add_argument("--degree", type=_integer, default=0,
                   help="degree in which to place the module (default 0)")
    for name, desc in (("census", "orbit census over a finite field"),
                       ("rigid-scan", "census of rigid complexes")):
        p = sub.add_parser(name, help=desc)
        common(p, needs_complex=False)
        p.add_argument("--dims", required=True,
                       help="dimension vector, top degree first, e.g. 1,1")
        p.add_argument("--pin", default=None,
                       help="complex JSON file whose modules pin the "
                            "enumeration (differentials optional)")
        p.add_argument("--max-points", type=_positive_int, default=10 ** 4,
                       help="candidate-point budget (default 10000)")
    return parser


def _emit(args, report: dict, text: list) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text:
            print(line)
    report_dir = getattr(args, "report_dir", None)
    if report_dir:
        os.makedirs(report_dir, exist_ok=True)
        path = os.path.join(report_dir, f"{report['command']}-report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, text = _HANDLERS[args.command](args)
        _emit(args, report, text)
        return EXIT_OK
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnsupportedCharacteristic as exc:
        print(f"error: unsupported characteristic: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (BudgetExceeded, MemoryError) as exc:
        print(f"error: budget exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except CompvarError as exc:
        print(f"error: validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
