"""Reduced IEC 61850-9-2 sampled-value toolkit for energy-IoT links.

Encode and decode the trimmed SV frame, carry it over UDP unicast or
multicast, simulate measurement sources and lossy channels, analyze
received streams, and check bandwidth budgets.
"""

from .analyzer import LinkStats, StreamAnalyzer, format_link_stats
from .budget import (
    BudgetReport,
    OVERHEAD_UDP_IPV4,
    OVERHEAD_UDP_IPV6,
    project_bitrate,
    sample_interval,
)
from .codec import (
    Asdu,
    DecodeMode,
    SavApdu,
    SmpSynch,
    SvFrame,
    UtcTimestamp,
    VlanTag,
    decode_frame,
    dissect,
    encode_frame,
    pack_seq_data,
    render_dissection,
    unpack_seq_data,
)
from .errors import SvError
from .model import (
    DatasetSchema,
    Quality,
    SchemaMember,
    Validity,
    from_engineering,
    to_engineering,
)
from .transport import EndpointConfig, Mode, PublisherState, publish_stream, subscribe

__version__ = "0.1.0"
