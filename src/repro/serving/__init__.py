"""The PIR shard service: TCP serving and remote clients.

Server side (:mod:`repro.serving.server`): one asyncio :class:`ShardServer`
per database shard answering subset-mask batches through the packed
:class:`~repro.pir.kernels.ServerKernel`, with work-conserving request
coalescing (an idle server flushes at once; what queues behind a busy
kernel leaves as the next batch), bounded admission (``BUSY``
backpressure) and graceful drain;
:class:`ShardCluster` boots one server per shard.  Client side
(:mod:`repro.serving.client`): :class:`TcpShardTransport` carries an
in-process shard connection's shares over pooled connections and
:class:`RemotePirSimulator` presents the in-process simulator surface over
it, bit-identical to local serving (invariant I2).
:mod:`repro.serving.loadgen` is the open-loop load harness over all of it.
"""

from .client import ConnectionPool, RemotePirSimulator, ShardConnection, TcpShardTransport
from .loadgen import LoadReport, run_loadgen, run_loadgen_multiproc
from .server import ShardCluster, ShardServer
from .wire import (
    RemoteServerError,
    ServerBusy,
    ShardInfo,
    WireError,
)

__all__ = [
    "ConnectionPool",
    "LoadReport",
    "RemotePirSimulator",
    "RemoteServerError",
    "ServerBusy",
    "ShardCluster",
    "ShardConnection",
    "ShardInfo",
    "ShardServer",
    "TcpShardTransport",
    "WireError",
    "run_loadgen",
    "run_loadgen_multiproc",
]
