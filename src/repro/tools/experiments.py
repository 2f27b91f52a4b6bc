"""Standalone experiment runner: regenerate the paper's artifacts.

``python -m repro.tools.experiments [--out DIR] [only ...]`` runs each
of E1-E11 once and prints its paper-vs-measured report.  A timing is one
call after one untimed warm-up call.  ``e5_rows`` and ``e9_rows`` are
also what ``benchmarks/test_floors.py`` holds to its committed bounds,
so each of those measurements is written once.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from typing import Callable, Dict, List

from repro.gom.builtins import builtin_type
from repro.gom.model import GomDatabase
from repro.manager import SchemaManager
from repro.tools.loc import feature_effort_table
from repro.tools.tables import comparison_table, extension_rows, figure2_report
from repro.workloads.carschema import (
    car_schema_ids,
    define_car_schema,
    dynamic_call_rows,
    expected_figure2_extensions,
    instantiate_paper_objects,
    resolve_code_placeholders,
)
from repro.workloads.newcarschema import (
    EVOLUTION_FEATURES,
    evolve_car_schema,
    evolve_person_schema,
)
from repro.workloads.synthetic import (generate_schema, random_evolution,
                                       seeded_violation)


def warm_ms(run):
    """``(result, ms)`` of one call of *run* after one untimed warm-up
    call (the first call compiles the plans it needs)."""
    run()
    start = time.perf_counter()
    result = run()
    return result, (time.perf_counter() - start) * 1000


def run_e1() -> str:
    start = time.perf_counter()
    manager = SchemaManager()
    result = define_car_schema(manager)
    elapsed = (time.perf_counter() - start) * 1000
    expected = expected_figure2_extensions(result)
    lines = [f"E1 — Figure 2 extensions (pipeline: {elapsed:.1f} ms)", ""]
    matched = True
    for pred in ("Schema", "Type", "Attr", "Decl", "ArgDecl", "SubTypRel",
                 "DeclRefinement"):
        measured = set(extension_rows(manager.model, pred))
        matched = matched and measured == expected[pred]
    lines.append(f"all rows match the paper: {'yes' if matched else 'NO'}")
    lines.append("")
    lines.append(figure2_report(manager.model))
    return "\n".join(lines)


def run_e2() -> str:
    manager = SchemaManager(record_dynamic_calls=False)
    result = define_car_schema(manager)
    expected = expected_figure2_extensions(result)
    paper_rows = resolve_code_placeholders(result, expected["CodeReqDecl"])
    measured = set(extension_rows(manager.model, "CodeReqDecl"))
    lines = ["E2 — CodeReq tables (paper analysis mode)", ""]
    lines.append(comparison_table("CodeReqDecl", paper_rows, measured))
    attr_expected = resolve_code_placeholders(result,
                                              expected["CodeReqAttr"])
    attr_measured = set(extension_rows(manager.model, "CodeReqAttr"))
    lines.append(comparison_table("CodeReqAttr", attr_expected,
                                  attr_measured))
    return "\n".join(lines)


def run_e3() -> str:
    manager = SchemaManager()
    define_car_schema(manager)
    instantiate_paper_objects(manager)
    check = manager.check()
    lines = ["E3 — object-base model tables", ""]
    lines.append(f"PhRep rows: {len(extension_rows(manager.model, 'PhRep'))}"
                 f" (paper: 4)")
    lines.append(f"Slot rows: {len(extension_rows(manager.model, 'Slot'))}"
                 f" (paper: 10 + 2 inherited City slots)")
    lines.append(f"consistency: {check.describe()}")
    return "\n".join(lines)


def run_e4() -> str:
    manager = SchemaManager()
    result = define_car_schema(manager)
    instantiate_paper_objects(manager)
    ids = car_schema_ids(result)
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    prims.add_attribute(ids["tid4"], "fuelType", builtin_type("string"))
    report = session.check()
    lines = ["E4 — fuelType repairs", ""]
    for index, explained in enumerate(
            session.repairs(report.violations[0]), start=1):
        lines.append(f"{index}. {explained.describe()}")
    session.rollback()
    return "\n".join(lines)


E5_SIZES = (50, 150, 400)


def e5_rows() -> List[dict]:
    """Delta vs full EES check after one ``add_attribute``, per size."""
    rows = []
    for n_types in E5_SIZES:
        manager = SchemaManager()
        schema = generate_schema(manager, n_types, seed=100 + n_types)
        manager.model.db.materialize()
        session = manager.begin_session(check_mode="delta")
        random_evolution(schema, session, random.Random(7), "add_attribute")
        delta, delta_ms = warm_ms(lambda: session.check("delta"))
        full, full_ms = warm_ms(lambda: session.check("full"))
        session.rollback()
        rows.append({"types": n_types, "delta_ms": delta_ms,
                     "full_ms": full_ms,
                     "consistent": delta.consistent and full.consistent})
    return rows


def run_e5() -> str:
    lines = ["E5 — incremental vs full check at EES", ""]
    for row in e5_rows():
        lines.append(f"  n={row['types']:>4}: full {row['full_ms']:>9.2f} ms,"
                     f" delta {row['delta_ms']:>7.2f} ms "
                     f"({row['full_ms'] / row['delta_ms']:.0f}x), "
                     f"consistent: {row['consistent']}")
    return "\n".join(lines)


def run_e6() -> str:
    model = GomDatabase(features=("core", "objectbase", "versioning",
                                  "fashion"))
    return ("E6 — extension effort\n\n"
            + feature_effort_table(model.contributions))


def run_e7() -> str:
    manager = SchemaManager(features=EVOLUTION_FEATURES)
    define_car_schema(manager)
    person = manager.runtime.create_object("Person",
                                           {"name": "Ada", "age": 38})
    evolve_person_schema(manager)
    birthday = manager.runtime.get_attr(person, "birthday")
    manager.runtime.set_attr(person, "birthday", 1950)
    lines = ["E7 — Person fashion", "",
             f"masked read of birthday: {birthday} (expect 1955)",
             f"age after write-through of 1950: {person.slots['age']} "
             f"(expect 43)",
             f"consistency: {manager.check().consistent}"]
    return "\n".join(lines)


def run_e8() -> str:
    manager = SchemaManager(features=EVOLUTION_FEATURES)
    result = define_car_schema(manager)
    objects = instantiate_paper_objects(manager)
    created = evolve_car_schema(manager, result)
    fuel = manager.runtime.call(objects["Car"], "fuel")
    lines = ["E8 — seven-step evolution", "",
             f"created: {sorted(created)}",
             f"old car fuel() through the mask: {fuel} (expect leaded)",
             f"consistency: {manager.check().consistent}"]
    return "\n".join(lines)


E9_KINDS = (("dangling_domain", "ref_Attr_domain_Type"),
            ("duplicate_type_name", "type_name_unique"),
            ("subtype_cycle", "subtype_acyclic"),
            ("missing_code", "decl_has_code"),
            ("bad_refinement", "refine_same_name"))


def e9_rows() -> List[dict]:
    """Detect and repair (first three violations) per seeded kind."""
    rows = []
    for kind, expected in E9_KINDS:
        manager = SchemaManager()
        schema = generate_schema(manager, 60, seed=3)
        manager.model.db.materialize()

        def scenario():
            session = manager.begin_session()
            seeded_violation(schema, session, random.Random(5), kind)
            check = session.check()
            repairs = sum(len(session.repairs(violation))
                          for violation in check.violations[:3])
            session.rollback()
            return check, repairs

        (check, repairs), ms = warm_ms(scenario)
        rows.append({"inconsistency": kind, "expected": expected,
                     "fired": {v.constraint.name for v in check.violations},
                     "violations": len(check.violations),
                     "repairs": repairs, "ms": ms})
    return rows


def run_e9() -> str:
    lines = ["E9 — constraint catalogue (60-type schema)", ""]
    for row in e9_rows():
        detected = row["expected"] in row["fired"]
        lines.append(f"  {row['inconsistency']:<20} {row['expected']:<22} "
                     f"detected: {'yes' if detected else 'NO'}, "
                     f"{row['violations']} violation(s), "
                     f"{row['repairs']} repair(s), {row['ms']:.2f} ms")
    return "\n".join(lines)


def run_e10() -> str:
    source = """
    schema D is
    type A is end type A;
    type B is end type B;
    type C supertype A, B is end type C;
    end schema D;
    """
    default = SchemaManager()
    default.define(source)
    strict = SchemaManager(features=("core", "objectbase",
                                     "single_inheritance"))
    session = strict.begin_session()
    strict.analyzer.define(session, source)
    verdict = session.check()
    session.rollback()
    lines = ["E10 — redefining consistency", "",
             f"default: accepted = {default.check().consistent}",
             f"single_inheritance: accepted = {verdict.consistent} "
             f"(violations: "
             f"{sorted({v.constraint.name for v in verdict.violations})})"]
    return "\n".join(lines)


def run_e11() -> str:
    n_objects = 300
    lines = [f"E11 — cures compared on {n_objects} objects", ""]
    for label, cure, options in (
            ("conversion (O2)", "add_slot", {}),
            ("masking (ENCORE)", "mask_with_handler", {}),
            ("lazy conversion", "mask_with_handler", {"materialize": True})):
        manager = SchemaManager()
        manager.define("schema Fleet is type Truck is [ plate : string; "
                       "km : float; ] end type Truck; end schema Fleet;")
        tid = manager.model.type_id("Truck")
        trucks = [manager.runtime.create_object(
            tid, {"plate": f"KA-{index}", "km": float(index)})
            for index in range(n_objects)]
        session = manager.begin_session()
        manager.analyzer.primitives(session).add_attribute(
            tid, "fuelType", builtin_type("string"))
        start = time.perf_counter()
        getattr(manager.conversions, cure)(tid, "fuelType", "leaded",
                                           session=session, **options)
        session.commit()
        cure_ms = (time.perf_counter() - start) * 1000
        stored = sum("fuelType" in truck.slots for truck in trucks)
        scans, scans_ms = warm_ms(lambda: [sum(
            manager.runtime.get_attr(truck, "fuelType") == "leaded"
            for truck in trucks) for _ in range(10)])
        lines.append(f"  {label:<17} cure {cure_ms:>7.2f} ms, "
                     f"slots stored at cure {stored:>3}/{n_objects}, "
                     f"warm scan {scans_ms / 10:>6.3f} ms, "
                     f"leaded {scans[0]}/{n_objects}")
    return "\n".join(lines)


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "e1": run_e1, "e2": run_e2, "e3": run_e3, "e4": run_e4, "e5": run_e5,
    "e6": run_e6, "e7": run_e7, "e8": run_e8, "e9": run_e9, "e10": run_e10,
    "e11": run_e11,
}


def run_experiments(names=None, out_dir: str = "",
                    echo: Callable[[str], None] = print) -> List[str]:
    """Run the selected experiments; returns the report texts."""
    selected = list(names) if names else list(EXPERIMENTS)
    reports = []
    for name in selected:
        if name not in EXPERIMENTS:
            raise SystemExit(f"unknown experiment {name!r}; "
                             f"available: {', '.join(sorted(EXPERIMENTS))}")
        text = EXPERIMENTS[name]()
        reports.append(text)
        echo(text)
        echo("")
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"{name}.txt"), "w",
                      encoding="utf-8") as handle:
                handle.write(text + "\n")
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.experiments",
        description="Regenerate the paper's artifacts (single-shot).")
    parser.add_argument("only", nargs="*",
                        help="experiment names (default: all), e.g. e1 e4")
    parser.add_argument("--out", default="",
                        help="directory to write report files into")
    arguments = parser.parse_args(argv)
    run_experiments(arguments.only or None, out_dir=arguments.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
