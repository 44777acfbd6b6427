"""Replication substrate: timestamps, summaries, logs, stores, servers.

This package is the Golding-TSAE stand-in: the data
structures and server machinery that both the weak-consistency baseline
and the paper's fast-consistency algorithm run on.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".acks": ("AckTable", "AckEntry"),
        ".creation": (
            "DonorInfo",
            "DonorSelectionPolicy",
            "MostCompleteLog",
            "NearestDonor",
            "FreshestDonor",
            "WeightedDonorScore",
        ),
        ".timestamps": ("Timestamp", "LamportClock", "ZERO"),
        ".versions": ("SummaryVector", "elementwise_min", "ENTRY_BYTES"),
        ".log": (
            "Update",
            "UpdateId",
            "WriteLog",
            "TruncationPolicy",
            "KeepAll",
            "MaxEntries",
            "AckedTruncation",
            "UPDATE_HEADER_BYTES",
        ),
        ".store": ("ContentStore", "StoreEntry"),
        ".server": ("ReplicaServer",),
        ".workload": ("ClientWorkload", "WorkloadStats", "start_workloads"),
        ".messages": (
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
        ),
    },
)
