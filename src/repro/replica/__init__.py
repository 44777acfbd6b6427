"""Replication substrate: timestamps, summaries, logs, stores, servers.

This package is the Golding-TSAE stand-in: the data
structures and server machinery that both the weak-consistency baseline
and the paper's fast-consistency algorithm run on.
"""

from .acks import AckEntry, AckTable
from .creation import (
    DonorInfo,
    DonorSelectionPolicy,
    FreshestDonor,
    MostCompleteLog,
    NearestDonor,
    WeightedDonorScore,
)
from .log import (
    UPDATE_HEADER_BYTES,
    AckedTruncation,
    KeepAll,
    MaxEntries,
    TruncationPolicy,
    Update,
    UpdateId,
    WriteLog,
)
from .messages import (
    FAST_KINDS,
    HEADER_BYTES,
    OFFER_ENTRY_BYTES,
    REPLY_ENTRY_BYTES,
    SESSION_KINDS,
    FastUpdateOffer,
    FastUpdatePayload,
    FastUpdateReply,
    SessionAbort,
    SessionBusy,
    SessionRequest,
    SummaryMessage,
    UpdateBatch,
    traffic_split,
)
from .server import ReplicaServer
from .store import ContentStore, StoreEntry
from .timestamps import ZERO, LamportClock, Timestamp
from .versions import ENTRY_BYTES, SummaryVector, elementwise_min
from .workload import ClientWorkload, WorkloadStats, start_workloads

__all__ = [
    "AckTable",
    "AckEntry",
    "DonorInfo",
    "DonorSelectionPolicy",
    "MostCompleteLog",
    "NearestDonor",
    "FreshestDonor",
    "WeightedDonorScore",
    "Timestamp",
    "LamportClock",
    "ZERO",
    "SummaryVector",
    "elementwise_min",
    "ENTRY_BYTES",
    "Update",
    "UpdateId",
    "WriteLog",
    "TruncationPolicy",
    "KeepAll",
    "MaxEntries",
    "AckedTruncation",
    "UPDATE_HEADER_BYTES",
    "ContentStore",
    "StoreEntry",
    "ReplicaServer",
    "ClientWorkload",
    "WorkloadStats",
    "start_workloads",
    # messages
    "SessionRequest",
    "SessionBusy",
    "SummaryMessage",
    "UpdateBatch",
    "SessionAbort",
    "FastUpdateOffer",
    "FastUpdateReply",
    "FastUpdatePayload",
    "HEADER_BYTES",
    "OFFER_ENTRY_BYTES",
    "REPLY_ENTRY_BYTES",
    "SESSION_KINDS",
    "FAST_KINDS",
    "traffic_split",
]
