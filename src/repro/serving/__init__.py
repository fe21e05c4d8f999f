"""The PIR shard service: TCP serving, remote clients, and the worker pool.

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
it, bit-identical to local serving (invariant I2).  Engine
side (:mod:`repro.serving.pool`): the persistent :class:`SolvePool`
process pool the query engine reuses across batches.
:mod:`repro.serving.loadgen` is the open-loop load harness over all of it.
"""

from .client import ConnectionPool, RemotePirSimulator, ShardConnection, TcpShardTransport
from .loadgen import LoadReport, run_loadgen, run_loadgen_multiproc
from .pool import SolvePool
from .server import ShardCluster, ShardServer
from .wire import (
    FrameDecoder,
    RemoteServerError,
    ServerBusy,
    ShardInfo,
    WireError,
)

__all__ = [
    "ConnectionPool",
    "FrameDecoder",
    "LoadReport",
    "RemotePirSimulator",
    "RemoteServerError",
    "ServerBusy",
    "ShardCluster",
    "ShardConnection",
    "ShardInfo",
    "ShardServer",
    "SolvePool",
    "TcpShardTransport",
    "WireError",
    "run_loadgen",
    "run_loadgen_multiproc",
]
