"""The shard-per-schema farm: multiprocess writer scale-out.

One process, one ``WriterLock``, one GIL is the service layer's
ceiling.  The farm breaks it along the partition key the paper
supplies: Appendix A makes the *schema* (with its whole subschema tree)
the unit of name-space isolation.  A :class:`~repro.farm.farm.SchemaFarm`
runs one node process (:mod:`repro.node`) per shard behind a
:class:`~repro.farm.router.ShardRouter` hashing root-schema names.

Cross-shard ``import`` is resolved by **snapshot exchange**: the home
shard's :func:`~repro.analyzer.namespaces.public_closure` excerpt is
installed on the importing shard as *foreign facts* through an
ordinary WAL-logged, EES-checked session, with a
``ForeignSchema(schemaid, homeshard, homeepoch)`` provenance fact;
every later commit on the home shard makes the copy stale
(:meth:`SchemaFarm.stale_imports` / :meth:`SchemaFarm.refresh_imports`).
Each shard resumes its ids at ``shard_index * ID_STRIDE + 1``, so ids
(and installed foreign facts) never collide across shards.
"""

from __future__ import annotations

from typing import Tuple

from repro.datalog.facts import PredicateDecl
from repro.gom.model import FeatureModule, register_feature

# The farm feature builds on Appendix-A namespaces; importing the module
# registers that feature first.
import repro.analyzer.namespaces  # noqa: F401  (feature registration)

#: Disjoint id-number stride per shard (shard *k* allocates numbers in
#: ``(k * ID_STRIDE, (k + 1) * ID_STRIDE]``).
ID_STRIDE = 1_000_000_000

#: The feature stack every shard runs with: the full protocol
#: surface of the fuzzer plus the farm's own provenance predicate.
FARM_FEATURES: Tuple[str, ...] = (
    "core", "objectbase", "versioning", "fashion", "namespaces", "farm")

FARM_PREDICATES: Tuple[PredicateDecl, ...] = (
    PredicateDecl(
        "ForeignSchema", ("schemaid", "homeshard", "homeepoch"), key=(0,),
        references=((0, "Schema", 0),),
        doc=("provenance of an installed foreign excerpt: the schema is "
             "homed on another shard, copied at that shard's epoch"),
    ),
)

register_feature(FeatureModule(
    name="farm",
    predicates=FARM_PREDICATES,
    requires=("core", "namespaces"),
    doc="shard-farm provenance: foreign schemas installed by snapshot "
        "exchange, keyed by (home shard, home epoch)",
))

from repro.farm.router import ShardRouter  # noqa: E402
from repro.farm.farm import SchemaFarm  # noqa: E402

__all__ = ["FARM_FEATURES", "FARM_PREDICATES", "ID_STRIDE", "SchemaFarm",
           "ShardRouter"]
