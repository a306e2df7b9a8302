"""End-to-end subscription system assembly."""

from .executor import (
    BatchExecutor,
    DEFAULT_BATCH_SIZE,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
)
from .executors import ExecutorSpec, available, create
from .ingest import BoundedFetchQueue
from .stages import FeedResult, PipelineTask
from .stream import Fetch, from_pairs, HTML_PAGE, XML_PAGE
from .system import SubscriptionSystem

__all__ = [
    "BatchExecutor",
    "BoundedFetchQueue",
    "DEFAULT_BATCH_SIZE",
    "ExecutorSpec",
    "Fetch",
    "FeedResult",
    "HTML_PAGE",
    "PipelineTask",
    "ProcessExecutor",
    "SerialExecutor",
    "SubscriptionSystem",
    "ThreadedExecutor",
    "XML_PAGE",
    "available",
    "create",
    "from_pairs",
]
