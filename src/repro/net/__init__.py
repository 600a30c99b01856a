"""Message-passing network substrate.

Implements the communication model from Appendix A.2.1 of the paper:
point-to-point FIFO links with configurable latency, *temporary* network
partitions (messages crossing a partition are buffered and flushed when the
partition heals, preserving reliable delivery), and crash faults.

The network deliberately distinguishes the paper's two run kinds:

- **stable runs**: no partitions after some point; consensus (TOB) makes
  progress;
- **asynchronous runs**: partitions may hold for arbitrarily long stretches;
  TOB may never deliver, but reliable broadcast still delivers within each
  partition component.
"""

from repro.net.network import LatencyModel, Network, UniformLatency, FixedLatency
from repro.net.partition import PartitionSchedule
from repro.net.faults import CrashSchedule, MessageFilter

__all__ = [
    "CrashSchedule",
    "FixedLatency",
    "LatencyModel",
    "MessageFilter",
    "Network",
    "PartitionSchedule",
    "UniformLatency",
]
