"""Golden logs: the outputs of five short runs must not change by a single byte.

The behavioural contract of the simulator is byte-identical logs for a
given (config, seed).  Criterion 11 checks that a run repeats itself; this
test checks that the code still produces the very bytes it produced when
the digests below were captured, so a refactor or speed-up that moves any
logged value, even in its last bit, fails here.  Two digests are pinned
per run: one per CSV file, and one over the array fields of `RunResult`,
which also covers the fields no CSV holds (`trig_rt_err`, `q0_fresh`,
`q0_true`, `final_lpe`, `last_sample`, the final truths and records).

The configs are small but reach the code paths that keep state across
ticks: the screened chain fills its judge queues (capacity 5) and records
(hist_cap 16) within seconds, so queue wrap-around and record evictions
happen early and often; the formation run covers the planar record and
the stage-2 controller; the saturated pair covers command clamping (346
clamped commands), the proof learning rate and truth feedback; the
excited chain covers the PE baseline, the broadcast leader odometry and a
random initial placement; the diamond gives robot 3 two pairs, (3, 1) and (3, 2), so its leader estimate averages two layer-2
compositions, prunes the sideways edge (2, 1), and fills its records
(hist_cap 12) at four different ticks, so records of different lengths
update side by side.

The digests were captured with Python 3.11 and NumPy 2.4 on x86-64 with
OpenBLAS.  Another BLAS or CPU can round differently in the last bit;
recapture them there from a commit known to be good, never from the
commit under test.  `summary.csv` carries `config_hash`, so a change to
the config schema may recapture only the `summary.csv` digests, and only
after a diff against the parent's files shows that no other column moved.
The array digest hashes dataclass type and field names along with the
values, so a change to a result type's layout (as when `Rotation3Z` came
to hold its (c, s) pair itself, where it once wrapped a `PlanarRotation`)
may recapture only `ARRAY_GOLDEN`, and only after a `_feed` that encodes
the new type as the old one reproduces the parent's digests.
"""

import dataclasses
import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from uwbio.config import RandomInit, RobotConfig, Saturation
from uwbio.harness import run_to_dir
from uwbio.regression import DataRecord
from uwbio.scenarios import chain_swarm, four_robot_formation, two_robot_benchmark
from uwbio.sensing import NoiseModel

NOISE = NoiseModel(sigma_range=0.05, sigma_odom_pos=0.002, sigma_odom_yaw=0.001)


def screened_chain():
    cfg = chain_swarm(4, seed=7, noise=replace(NOISE, outlier_prob=0.1), duration_s=20.0)
    return replace(cfg, hist_cap=16, judge_capacity=5, sample_dump=True)


def planar_formation():
    return four_robot_formation(noise=NOISE, seed=3, duration_s=30.0)


def saturated_pair():
    cfg = two_robot_benchmark(noise=NOISE, seed=5, duration_s=30.0)
    return replace(cfg, truth_feedback=True, saturation=Saturation(0.3, 0.2, 0.6),
                   rate_variant="proof")


def excited_chain():
    cfg = chain_swarm(3, seed=4, noise=NOISE, duration_s=20.0)
    # The PE baseline runs no stage-one program and random_init draws the
    # followers' poses, so the config holds only the leader's pose and circle.
    robots = (replace(cfg.robots[0], c_v=0.0), RobotConfig(1), RobotConfig(2))
    return replace(cfg, robots=robots, pe_baseline=True, leader_odom_broadcast=True,
                   random_init=RandomInit(3.0, 0.8))


def diamond():
    cfg = chain_swarm(4, seed=2, noise=replace(NOISE, outlier_prob=0.05), duration_s=20.0)
    return replace(cfg, edges=((1, 0), (2, 0), (2, 1), (3, 1), (3, 2)), hist_cap=12,
                   judge_capacity=4)


GOLDEN = {
    "screened_chain": (screened_chain, {
        "commands.csv":
            "125d6f6cbc1cfa2c9cd6ee3e682e32022ad3c5339c6815be93d91bfdcaeaf93a",
        "estimates.csv":
            "6ada1a068bc640a85120b7728b7705a14f25ac32088523e13df7c074462c10ed",
        "outliers.csv":
            "e6ef1a5305006d68547a5104b76932ed37f79d4cc3b7a33ea38a7ac28dc73a5c",
        "samples.csv":
            "846d215129af403ff17a2c885c0202a960ee84d7aa20be0156c9691f65ae975c",
        "summary.csv":
            "ae96a7da960206da06bb312f06ec0d0b46fa98920deb1d4dadc1e176d8db2c65",
        "tracking.csv":
            "dfcba0bf6b2a27e64f31ba056478f22ade66246bdf9770c93d8b03643f4c3e3c",
    }),
    "planar_formation": (planar_formation, {
        "commands.csv":
            "0181e97283f963bcea07a63cfe797f4ee1c694ce5325793980272bf06725de52",
        "estimates.csv":
            "218d679f583d3634effeaf81af36d1bb95d972c6b695117868c3c798b27f8074",
        "outliers.csv":
            "b6c7d1581670bb190885fdb1438af7bdf73e555d9d2621949fdfca2c78d12b4a",
        "summary.csv":
            "bcc4c195a83a0b2495265bd543cde593b509de031da12d8e7c52dd3857e1fc42",
        "tracking.csv":
            "956a9516bf194ff1edd989ad618474f8df6ca82efefb0d0ee2ee7280069e4f0b",
    }),
    "saturated_pair": (saturated_pair, {
        "commands.csv":
            "e7b16910ef3adb83a8e530de884e13b4602c9215f5e5a3b6ef52e3ef201a2972",
        "estimates.csv":
            "2dd0f2b8d0e628aa2900ab29d6c4fa25412f3f6f7d95806c513ec8e7a104791d",
        "outliers.csv":
            "9caf2d92cf1539e19524f5e50d9f65650ffdf6d87ee95905c7db3769eb64222f",
        "saturation.csv":
            "8ade68d6d63b14b6824613369e34047ecc212df76f59540247a77bf081475cf3",
        "summary.csv":
            "016584480d914fe2822c901dc04dc19958954277c3e3ca87b18a8803c9020e5c",
        "tracking.csv":
            "2e4be50acbddafe0a4a2c1a88cb6659e103ae60d0cf1a9de1c4291b048cf2a90",
    }),
    "excited_chain": (excited_chain, {
        "commands.csv":
            "70231820ce6eaea2a665fbf7ca3f8f9f3aec4ccc474ad0ccffd83914bb65cd17",
        "estimates.csv":
            "a10354b43007401d031479f4254c7b6c0d5cae455838fa58d2db5eab707ade31",
        "outliers.csv":
            "4b706dd003f152668eca6782810845d1db9d29645e975da2b4d58ec937b26bfb",
        "summary.csv":
            "cd162430fe957f84c954785a7f80b1729227fc850638f9392806717eb6f3179d",
        "tracking.csv":
            "0bc8bdfc94975b3785317d385954539b4e85c327a9da83e5ba20556ed9c203a5",
    }),
    "diamond": (diamond, {
        "commands.csv":
            "622c7cd2c0e87b387f401b03c3fd092a5f3964f9bc2d0e7bf4a8f0eea703c8c3",
        "estimates.csv":
            "201fa0ddcd7a01433e362f2492a852ba59b453db3b887e7437171d6f566657d2",
        "outliers.csv":
            "d90395876b8e57cf4d9e2d8341a47516ce7b562590a06c3ab2e12712bdb06b50",
        "summary.csv":
            "821ce9576755eedd672da8507698f5bcf6ef43cc349da2e90a80a1456be49231",
        "tracking.csv":
            "80bc44e67df96061a88fa3df60848bd077401794f28935990fee191692de3a0f",
    }),
}

# The RunResult fields that hold arrays, in hashing order.
ARRAY_FIELDS = (
    "theta_true", "q0_true", "theta_log", "theta_err", "lam_min", "lam_max", "updated",
    "q0_err", "q0_fresh", "q_rt_err", "trig_rt_err", "track_truth", "track_est",
    "commands", "stage2_flag", "final_estimators", "final_lpe", "final_truths",
    "last_sample",
)

ARRAY_GOLDEN = {
    "screened_chain":
        "93cd0e01820dc3a4df05d206788ef049630599a9e80a958455b13df021af91c9",
    "planar_formation":
        "b58b20a6bae1c1bda9ae235a51394a0d94895c0f86ecaceb40a9052cf3b1a439",
    "saturated_pair":
        "180f4bbf7a89055354fbec13106b7c47f858022b513c535bf048801520975f67",
    "excited_chain":
        "ba7b1883b97876a349ca70129dce479a9f49f4c4139b89df3dbfbf10cb52c386",
    "diamond":
        "acb81f55e66247e7c67deb865015b87319c80f63327145d7d1dc9bd9176ef729",
}


def _feed(h, x) -> None:
    """Feed a canonical byte encoding of a result value into the hash."""
    if isinstance(x, np.ndarray):
        h.update(f"a{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bool, np.bool_, int, np.integer)):
        h.update(f"i{int(x)}".encode())
    elif isinstance(x, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(x)))
    elif x is None:
        h.update(b"n")
    elif isinstance(x, dict):
        h.update(f"d{len(x)}".encode())
        for key in sorted(x):
            _feed(h, key)
            _feed(h, x[key])
    elif isinstance(x, (list, tuple)):
        h.update(f"l{len(x)}".encode())
        for item in x:
            _feed(h, item)
    elif isinstance(x, DataRecord):
        for item in (x.S, x.phis, x.ys, x.lambda_min, x.lambda_max):
            _feed(h, item)
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            _feed(h, getattr(x, f.name))
    elif isinstance(x, str):
        h.update(f"s{x}".encode())
    else:
        raise TypeError(f"no canonical encoding for {type(x).__name__}")


def array_digest(res) -> str:
    h = hashlib.sha256()
    for name in ARRAY_FIELDS:
        h.update(name.encode())
        _feed(h, getattr(res, name))
    return h.hexdigest()


def csv_digests(outdir) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("*.csv"))}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """(result, CSV digests) of each golden config, run once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            outdir = tmp_path_factory.mktemp(name)
            res = run_to_dir(GOLDEN[name][0](), outdir)
            cache[name] = (res, csv_digests(outdir))
        return cache[name]
    return get


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_logs_match_golden_digests(name, golden_run):
    assert golden_run(name)[1] == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(ARRAY_GOLDEN))
def test_result_arrays_match_golden_digests(name, golden_run):
    assert array_digest(golden_run(name)[0]) == ARRAY_GOLDEN[name]
