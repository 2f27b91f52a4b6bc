"""The concurrent schema service front-end.

:class:`SchemaService` serves read traffic from immutable schema
snapshots on a thread pool while evolution sessions — serialized by the
model's writer lock — publish new snapshots at every successful EES.

Past one process, :class:`repro.farm.SchemaFarm` runs one durable
manager *process* per shard, scaling writers too.
"""

from repro.service.service import SchemaService

__all__ = ["SchemaService"]
