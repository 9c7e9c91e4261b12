"""End-to-end receiver benchmark for the Choir reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
replays a pre-rendered wideband IQ capture through the public receive
path (``ShardedGateway.run`` -> ``on_outcome`` -> ``uplink_from_outcome``
-> ``NetworkServer.handle_uplink``) in fresh subprocesses, checks the
delivered frames against the capture's ground truth, and prints one JSON
result line.  See ``perfbench/NOTES.md`` for the workloads and the
layer-to-metric map.
"""
