"""Shared fixtures for the streaming-gateway tests.

sf7 keeps frames short (24 symbols = 3072 samples for 4-byte payloads),
so end-to-end streaming runs stay fast enough for tier-1.
"""

import pytest

from repro.gateway import ShardedGatewayConfig
from repro.mac.simulator import NodeConfig
from repro.phy.params import ChannelPlan, LoRaParams

PARAMS = LoRaParams(spreading_factor=7)

#: Application payload bytes used across the gateway tests.
PAYLOAD_LEN = 4


def one_channel_config(params: LoRaParams = PARAMS, **overrides) -> ShardedGatewayConfig:
    """A one-channel gateway config matching traffic synthesized with ``params``."""
    return ShardedGatewayConfig(
        plan=ChannelPlan(n_channels=1, bandwidth=params.bandwidth),
        sf_set=(params.spreading_factor,),
        preamble_len=params.preamble_len,
        **overrides,
    )


def periodic_node(node_id: int = 0, snr_db: float = 15.0, period_s: float = 0.25) -> NodeConfig:
    """One periodically transmitting node."""
    return NodeConfig(node_id=node_id, snr_db=snr_db, period_s=period_s)


@pytest.fixture
def params() -> LoRaParams:
    return PARAMS
