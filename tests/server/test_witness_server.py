"""Race-witness coverage for the server's threaded ingest path.

Dynamic half of the R009 story for ``repro.server``: instrument the
live objects, drive the real threaded transport, and require that every
observed cross-thread write was lock-held *and* statically classified.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.server.frames import UplinkFrame
from repro.server.ingest import ThreadedIngestor
from repro.server.server import NetworkServer, ServerConfig
from repro.tools.analysis.witness import attach, cross_check, static_verdicts

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def frame(gw, addr=1, fcnt=0, t=0.0, seq=0):
    return UplinkFrame(
        gateway_id=gw,
        device_addr=addr,
        fcnt=fcnt,
        snr_db=0.0,
        received_s=t,
        seq=seq,
    )


def make_server(**kwargs):
    kwargs.setdefault("dedup_window_s", 0.01)
    return NetworkServer(ServerConfig(**kwargs))


class TestThreadedIngestWitness:
    def test_producer_drop_accounting_is_guarded_and_classified(self):
        server = make_server(queue_capacity=1, drop_policy="newest")

        def slow_stream():
            # Stall the merge on gw1's head so gw0's producer overruns
            # its capacity-1 queue and exercises the drop path.
            time.sleep(0.2)
            yield frame(1, fcnt=0, t=0.5)

        ingestor = ThreadedIngestor(
            server,
            {
                0: [frame(0, fcnt=i, t=0.01 * i, seq=i) for i in range(10)],
                1: slow_stream(),
            },
        )
        witness = attach(ingestor)
        ingestor.run()
        server.finish()
        assert ingestor.n_dropped > 0  # the shared path actually ran
        assert "n_dropped" in witness.shared_written_attrs()
        verdicts = static_verdicts(
            "repro.server.ingest.ThreadedIngestor", [SRC_ROOT]
        )
        assert cross_check(witness, verdicts) == []

    def test_server_writes_always_hold_the_server_lock(self):
        server = make_server()
        witness = attach(server)
        ingestor = ThreadedIngestor(
            server,
            {
                gw: [
                    frame(gw, addr=3, fcnt=i, t=0.01 * i, seq=i)
                    for i in range(25)
                ]
                for gw in range(3)
            },
        )
        ingestor.run()
        server.drain_commands()
        report = server.finish()
        assert report.n_delivered == 25
        events = witness.write_events()
        assert any(e.attr == "_n_ingested" for e in events)  # non-vacuous
        for event in events:
            assert "_lock" in event.locks, (
                f"write to self.{event.attr} without the server lock "
                f"(seq {event.seq})"
            )
        verdicts = static_verdicts(
            "repro.server.server.NetworkServer", [SRC_ROOT]
        )
        assert cross_check(witness, verdicts) == []


class TestConcurrentCallers:
    def test_direct_multithreaded_handle_uplink_is_race_free(self):
        # The live-gateway tap (ShardedGateway on_outcome) calls handle_uplink
        # from decode worker threads; the witness must see every one of
        # those cross-thread writes performed under the server lock.
        server = make_server()
        witness = attach(server)

        def caller(addr: int) -> None:
            for i in range(20):
                server.handle_uplink(
                    frame(0, addr=addr, fcnt=i, t=0.01 * i, seq=i)
                )

        threads = [
            threading.Thread(target=caller, args=(addr,), name=f"dev{addr}")
            for addr in (1, 2, 3, 4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = server.finish()
        assert report.n_ingested == 80
        assert "_n_ingested" in witness.shared_written_attrs()
        assert witness.unguarded_shared_writes() == []
