"""Systematic MDS erasure codes with minimum single-node repair bandwidth.

For n storage nodes holding k data pieces' worth of information (2k <= n),
any k nodes can reconstruct the data, and a single failed node is rebuilt
from k+1 helpers by downloading k+1 symbols per stripe -- the exact cut
lower bound, versus 2k for naive reconstruct-then-reencode repair.  The
first 2k information symbols of every stripe stay readable verbatim from
nodes 1..2k at every epoch.
"""

from . import errors
from .bounds import (
    cut_bound,
    degree_bound,
    find_cut_violation,
)
from .code import (
    CodeState,
    all_columns,
    column_label,
    decode,
    dot,
    encode,
    find_mds_violation,
    init_systematic,
    read_systematic,
)
from .field import GF
from .repair import (
    RepairTranscript,
    combine_replacement,
    default_helpers,
    find_replacement_conflict,
    rebuild_symbols,
    repair,
    retained_columns,
    solve_coefficients,
)
from .sim import (
    BandwidthLedger,
    CampaignReport,
    Cluster,
    RepairRecord,
    campaign,
    check_conservation,
    extract,
    fail_and_repair,
    ingest,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "CodeState",
    "RepairTranscript",
    "RepairRecord",
    "BandwidthLedger",
    "CampaignReport",
    "Cluster",
    "all_columns",
    "campaign",
    "check_conservation",
    "column_label",
    "combine_replacement",
    "cut_bound",
    "decode",
    "default_helpers",
    "degree_bound",
    "dot",
    "encode",
    "errors",
    "extract",
    "fail_and_repair",
    "find_cut_violation",
    "find_mds_violation",
    "find_replacement_conflict",
    "ingest",
    "init_systematic",
    "read_systematic",
    "rebuild_symbols",
    "repair",
    "retained_columns",
    "solve_coefficients",
]
