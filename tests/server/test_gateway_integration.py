"""Real-waveform bridge: streaming gateways feeding the network server.

Two one-channel :class:`repro.gateway.ShardedGateway` instances decode the *same* node
schedule at different link qualities (the same seed renders identical
timing; only SNR differs).  ``payload_fn`` stamps each transmission with
the ``(device_addr, fcnt)`` header, :func:`uplinks_from_report` replays
the decodes as uplink records, and the server deduplicates across the
two receptions -- IQ samples to application uplinks, end to end.
"""

from repro.gateway import ShardedGateway, SyntheticTrafficSource
from repro.server.frames import (
    decode_uplink_payload,
    encode_uplink_payload,
    uplink_from_outcome,
    uplinks_from_report,
)
from repro.server.server import NetworkServer, ServerConfig
from tests.gateway.conftest import PARAMS, PAYLOAD_LEN, one_channel_config, periodic_node

DEVICE_ADDR = 9


def stamped(node_id: int, seq: int) -> bytes:
    return encode_uplink_payload(node_id, seq, PAYLOAD_LEN)


def run_gateway(snr_db: float):
    source = SyntheticTrafficSource(
        PARAMS,
        [periodic_node(node_id=DEVICE_ADDR, snr_db=snr_db)],
        duration_s=1.0,
        payload_len=PAYLOAD_LEN,
        rng=0,
        payload_fn=stamped,
    )
    config = one_channel_config(payload_len=PAYLOAD_LEN, executor="serial", seed=0)
    return ShardedGateway(config).run(source)


class TestWaveformToServer:
    def test_two_gateway_decode_dedup_round_trip(self):
        report_near = run_gateway(snr_db=15.0)
        report_far = run_gateway(snr_db=8.0)
        assert report_near.packets_decoded > 0
        assert report_far.packets_decoded > 0

        streams = {
            0: uplinks_from_report(report_near, 0, PARAMS.sample_rate),
            1: uplinks_from_report(report_far, 1, PARAMS.sample_rate),
        }
        # The payload header survived the waveform round trip.
        for gw, frames in streams.items():
            assert frames
            for frame in frames:
                assert frame.device_addr == DEVICE_ADDR
                assert decode_uplink_payload(frame.payload) == (
                    DEVICE_ADDR,
                    frame.fcnt,
                )

        server = NetworkServer(ServerConfig(dedup_window_s=0.1))
        for frame in sorted(
            (f for frames in streams.values() for f in frames),
            key=lambda f: (f.received_s, f.gateway_id, f.seq),
        ):
            server.handle_uplink(frame)
        result = server.finish()

        # Every frame both gateways heard collapsed to one delivery.
        heard_twice = set(f.key for f in streams[0]) & set(
            f.key for f in streams[1]
        )
        assert heard_twice
        delivered_keys = [u.frame.key for u in result.delivered]
        assert len(delivered_keys) == len(set(delivered_keys))
        for key in heard_twice:
            winners = [u for u in result.delivered if u.frame.key == key]
            assert len(winners) == 1
            # Identical waveform at higher SNR scores at least as high,
            # so the near gateway's copy wins.
            assert winners[0].frame.gateway_id == 0
            assert winners[0].delivered.n_copies == 2

    def test_live_on_outcome_hook_feeds_server(self):
        import threading

        server = NetworkServer(ServerConfig(dedup_window_s=0.05))
        counters = {"seq": 0}
        feed_lock = threading.Lock()  # on_outcome may fire from workers

        def forward(outcome):
            # Live bridge: one record per CRC-verified decode, pushed
            # into the (internally locked) server as it happens.
            with feed_lock:
                frame = uplink_from_outcome(
                    outcome, 0, PARAMS.sample_rate, seq=counters["seq"]
                )
                if frame is not None:
                    counters["seq"] += 1
                    server.handle_uplink(frame)

        source = SyntheticTrafficSource(
            PARAMS,
            [periodic_node(node_id=DEVICE_ADDR, snr_db=15.0)],
            duration_s=1.0,
            payload_len=PAYLOAD_LEN,
            rng=0,
            payload_fn=stamped,
        )
        config = one_channel_config(
            payload_len=PAYLOAD_LEN,
            executor="thread",
            n_workers=2,
            seed=0,
        )
        report = ShardedGateway(config, on_outcome=forward).run(source)
        result = server.finish()
        assert report.packets_decoded > 0
        assert result.n_ingested == report.packets_decoded
        assert result.n_delivered == result.n_ingested  # single gateway
        # fcnt carried the per-node transmission index.
        fcnts = sorted(u.frame.fcnt for u in result.delivered)
        assert fcnts == list(range(len(fcnts)))
