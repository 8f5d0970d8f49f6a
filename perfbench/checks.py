"""Output checks: each reads a pass's artifacts and the generated input and
returns a list of problems (empty when the outputs are right).

No check compares against a stored copy of earlier output; every expected
value comes from the scalar model in `oracle` or from the inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

from . import oracle

COV_TOL = 1e-6  # metrics.csv prints six decimals
RATE_TOL = 1e-6
ESTIMATE_TOL = 5e-4  # actions.log prints the plan estimate with three decimals
BATTERY_RESERVE_MS = 14_400_000
TARGET_FRACTION = 0.95
GREEDY_BOUND = 1.0 - 1.0 / math.e


def read_actions(path: str) -> list[tuple[int, str]]:
    with open(path) as fh:
        return [(int(t), desc) for t, desc in (line.rstrip("\n").split("\t", 1) for line in fh)]


def read_samples(path: str):
    """metrics.csv, one (time_ms, coverage, {ue: rate}) per sample, streamed
    so that a check holds one sample at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["time_ms", "coverage_ratio", "ue_id", "throughput_mbps"]:
            raise ValueError("metrics.csv header changed")
        current = None
        for t, cov, ue, rate in reader:
            t = int(t)
            if current is None or current[0] != t:
                if current is not None:
                    yield current
                current = (t, float(cov), {})
            current[2][ue] = float(rate)
        if current is not None:
            yield current


def app_errors(actions) -> list[str]:
    return [f"t={t}: {d}" for t, d in actions if d.startswith("AppError")]


def _nodes(scenario: dict, kind: str):
    return [n for n in scenario["nodes"] if n["kind"] == kind]


def _boxes(raw) -> list:
    return [(tuple(map(float, lo)), tuple(map(float, hi))) for lo, hi in raw]


def _coverage(chan, access, ues, boxes, threshold) -> tuple[float, list[str]]:
    """Share of UEs whose best access link clears the threshold, and the ids
    of those that do not."""
    out = []
    for ue in ues:
        best = max(
            (chan.link_snr_db(n["position"], float(n.get("tx_power_dbm", 30.0)),
                              float(n.get("freq_ghz", 3.5)), ue["position"], boxes)
             for n in access),
            default=-math.inf,
        )
        if best < threshold:
            out.append(ue["id"])
    return (len(ues) - len(out)) / len(ues), out


def _post_strike(scenario: dict):
    """Access nodes and obstacles right after the (single) strike."""
    strike = scenario["disasters"][0]
    failed = set(strike.get("fail", ()))
    access = [n for n in scenario["nodes"] if n["kind"] in oracle.ACCESS_KINDS
              and n.get("status", "Operational") != "Failed" and n["id"] not in failed]
    boxes = _boxes(scenario.get("obstacles", ())) + _boxes(strike.get("blockages", ()))
    return access, boxes


# --- quake_4h --------------------------------------------------------------------


def check_quake(scenario: dict, out_dir: str) -> list[str]:
    problems: list[str] = []
    actions = read_actions(os.path.join(out_dir, "actions.log"))
    problems += app_errors(actions)
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    chan = oracle.Channel(scenario.get("channel", {}))
    threshold = float(scenario.get("planner", {}).get("snr_threshold_db", 3.0))
    ues = _nodes(scenario, "UE")
    disaster = scenario["disasters"][0]
    strike = int(disaster["time_ms"])
    access_pre = [n for n in scenario["nodes"] if n["kind"] in oracle.ACCESS_KINDS]
    cov_pre, _ = _coverage(chan, access_pre, ues, _boxes(scenario.get("obstacles", ())), threshold)
    access_post, boxes_post = _post_strike(scenario)
    cov_post, _ = _coverage(chan, access_post, ues, boxes_post, threshold)

    deploys = [(t, d) for t, d in actions if d.startswith("DeployPlan")]
    expiries = [t for t, d in actions if d.startswith("BatteryExpiry")]
    reserve = int(scenario.get("battery_reserve_ms", BATTERY_RESERVE_MS))
    if len(expiries) != len(disaster.get("power_loss", ())):
        problems.append(f"{len(expiries)} BatteryExpiry lines, expected {len(disaster['power_loss'])}")
    if any(t != strike + reserve for t in expiries):
        problems.append(f"BatteryExpiry times {sorted(set(expiries))} != strike + {reserve}")
    if not deploys:
        return problems + ["no DeployPlan in actions.log"]
    t_deploy = deploys[0][0]
    estimate = float(re.search(r"estimate ([0-9.]+)", deploys[0][1]).group(1))
    t_expiry = min(expiries, default=math.inf)

    traffic = scenario.get("traffic", {})
    n_ue = len(ues)
    series = []
    for t, cov, rates in read_samples(os.path.join(out_dir, "metrics.csv")):
        series.append((t, cov))
        if len(rates) != n_ue:
            problems.append(f"t={t}: {len(rates)} UE rows, expected {n_ue}")
        served = sum(1 for r in rates.values() if r > 0.0)
        if abs(served / n_ue - cov) > COV_TOL:
            problems.append(f"t={t}: {served} UEs with rate > 0 but coverage {cov}")
        offered = oracle.offered_mbps(traffic, t - strike if t >= strike else -1.0)
        top = max(rates.values(), default=0.0)
        if top > offered + RATE_TOL:
            problems.append(f"t={t}: rate {top} above the offered load {offered}")
        if t < strike and abs(cov - cov_pre) > COV_TOL:
            problems.append(f"t={t}: pre-strike coverage {cov} != oracle {cov_pre}")
        elif strike <= t < t_deploy and abs(cov - cov_post) > COV_TOL:
            problems.append(f"t={t}: post-strike coverage {cov} != oracle {cov_post}")
        elif t_deploy <= t < t_expiry and cov < estimate - ESTIMATE_TOL:
            problems.append(f"t={t}: coverage {cov} below the plan estimate {estimate}")
        if len(problems) > 20:
            return problems

    if abs(float(summary["baseline_coverage"]) - cov_pre) > 1e-12:
        problems.append(f"baseline {summary['baseline_coverage']} != oracle {cov_pre}")
    want = oracle.recovery_time(series, strike, cov_pre, TARGET_FRACTION)
    got = summary.get("recovery_time_ms")
    if (want is None and got != "not_recovered") or (want is not None and got != want):
        problems.append(f"recovery_time_ms {got} != oracle {want}")
    return problems


# --- ris_bench_76x4 ------------------------------------------------------------------


def check_ris_bench(results, seeds, n_elements: int, n_states: int, group_count: int = 4) -> list[str]:
    problems: list[str] = []
    want_evals = {"iterative": n_elements * n_states, "grouping": group_count * n_states, "codebook": 0}
    by_alg: dict[str, dict[int, float]] = {a: {} for a in want_evals}
    for r in results:
        if r.evaluations != want_evals[r.algorithm] or r.feedback_messages != want_evals[r.algorithm]:
            problems.append(f"{r.algorithm} seed {r.seed}: {r.evaluations} evaluations, "
                            f"{r.feedback_messages} feedback, expected {want_evals[r.algorithm]}")
        by_alg[r.algorithm][r.seed] = r.final_power_dbm
    states = oracle.HV4_STATES[:n_states]
    for seed in seeds:
        if any(seed not in by_alg[a] for a in by_alg):
            problems.append(f"seed {seed}: missing results")
            continue
        elements, tx, ue, boxes = oracle.bench_geometry(seed, n_elements)
        zero = oracle.ris_gain(tx, elements, states, [0] * n_elements, ue,
                               oracle.BENCH_FREQ_GHZ, oracle.BENCH_CHANNEL, boxes)
        bound = oracle.ris_bound_amplitude(tx, elements, states, ue, oracle.BENCH_FREQ_GHZ,
                                           oracle.BENCH_CHANNEL, boxes)
        lo = oracle.power_dbm(oracle.BENCH_TX_DBM, abs(zero))
        hi = oracle.power_dbm(oracle.BENCH_TX_DBM, bound)
        got = by_alg["iterative"][seed]
        if not lo - 1e-9 <= got <= hi + 1e-9:
            problems.append(f"seed {seed}: iterative {got} dBm outside [{lo}, {hi}]")

    def mean(alg):
        vals = list(by_alg[alg].values())
        return 10.0 * math.log10(sum(10 ** (v / 10.0) for v in vals) / len(vals)) if vals else -math.inf

    if not mean("iterative") > max(mean("grouping"), mean("codebook")):
        problems.append(f"mean powers iterative {mean('iterative')}, grouping {mean('grouping')}, "
                        f"codebook {mean('codebook')}")
    return problems


# --- ris_emergency --------------------------------------------------------------------


class RisModel:
    """The emergency room of one generated scenario, as the oracle sees it."""

    def __init__(self, scenario: dict) -> None:
        self.scenario = scenario
        self.chan = oracle.Channel(scenario.get("channel", {}))
        nodes = {n["id"]: n for n in scenario["nodes"]}
        ric = scenario["ric"]
        (self.panel_id, cfg), = ric["ris"].items()
        panel = nodes[self.panel_id]
        spec = panel["ris"]
        self.elements = oracle.panel_elements(panel["position"], spec["rows"], spec["cols"],
                                              spec["pitch_m"], spec.get("normal_axis", 1))
        self.half = len(self.elements) // 2
        self.tx = nodes[cfg["tx"]]
        self.parts = {int(p): v["ue"] for p, v in cfg["parts"].items()}
        self.start = {ue: tuple(nodes[ue]["position"]) for ue in self.parts.values()}
        self.moves = sorted((m["time_ms"], m["node_id"], tuple(m["position"])) for m in ric["ue_moves"])
        self.switches = sorted((s["time_ms"], s["policy"]) for s in ric.get("script", ()) if "policy" in s)
        self.policy0 = ric.get("policy", "max-throughput")
        self.strikes = sorted((d["time_ms"], _boxes(d.get("blockages", ()))) for d in scenario["disasters"])
        self.base_boxes = _boxes(scenario.get("obstacles", ()))
        self.near_rt = int(scenario["ticks"]["near_rt_ms"])
        self.threshold = float(scenario.get("planner", {}).get("snr_threshold_db", 3.0))
        self._gain_cache: dict = {}

    def positions(self, t: int) -> dict[str, tuple]:
        pos = dict(self.start)
        for tm, ue, p in self.moves:
            if tm > t:
                break
            pos[ue] = p
        return pos

    def last_move(self, t: int) -> int:
        return max((tm for tm, _, _ in self.moves if tm <= t), default=-math.inf)

    def policy_at(self, t: int) -> tuple[str, float]:
        """Policy in force at t and when it was switched on."""
        policy, since = self.policy0, -math.inf
        for tm, p in self.switches:
            if tm > t:
                break
            policy, since = p, tm
        return policy, since

    def boxes(self, t: int) -> list:
        out = list(self.base_boxes)
        for tm, boxes in self.strikes:
            if tm <= t:
                out += boxes
        return out

    def last_strike(self, t: int):
        return max((tm for tm, _ in self.strikes if tm <= t), default=None)

    def ris_snr(self, config: tuple, ue_pos, n_boxes: int, boxes) -> float:
        key = (config, ue_pos, n_boxes)
        if key not in self._gain_cache:
            gain = oracle.ris_gain(self.tx["position"], self.elements, oracle.HV4_STATES, config,
                                   ue_pos, float(self.tx.get("freq_ghz", 3.5)), self.chan, boxes)
            self._gain_cache[key] = (oracle.power_dbm(float(self.tx["tx_power_dbm"]), abs(gain))
                                     - self.chan.noise_dbm())
        return self._gain_cache[key]

    def rates(self, t: int, config: tuple) -> dict[str, set[float]]:
        """Allowed rates per UE at t with the full panel at config."""
        pos = self.positions(t)
        boxes = self.boxes(t)
        freq = float(self.tx.get("freq_ghz", 3.5))
        best, server = {}, {}
        for ue, p in pos.items():
            direct = self.chan.link_snr_db(self.tx["position"], float(self.tx["tx_power_dbm"]), freq, p, boxes)
            ris = self.ris_snr(config, p, len(boxes), boxes)
            best[ue], server[ue] = (ris, self.panel_id) if ris > direct else (direct, self.tx["id"])
        strike = self.last_strike(t)
        offered = oracle.offered_mbps(self.scenario.get("traffic", {}), t - strike if strike is not None else -1.0)
        load: dict[str, int] = {}
        for ue in pos:
            if best[ue] >= self.threshold:
                load[server[ue]] = load.get(server[ue], 0) + 1
        out = {}
        for ue in pos:
            if best[ue] < self.threshold:
                out[ue] = {0.0}
            else:
                out[ue] = {min(offered, r / load[server[ue]])
                           for r in oracle.mcs_rates_near(best[ue], self.chan.mcs)}
        return out


def read_codebook(path: str) -> tuple[list, list]:
    with open(path) as fh:
        data = json.load(fh)
    return [tuple(p) for p in data["reference_points"]], [list(cw) for cw in data["codewords"]]


def check_ris_emergency(scenario: dict, out_dir: str, codebooks: dict[int, str]) -> list[str]:
    problems: list[str] = []
    model = RisModel(scenario)
    actions = read_actions(os.path.join(out_dir, "actions.log"))
    problems += app_errors(actions)
    tuned = [d for _, d in actions if d.startswith("ApplyRisConfig by RisIterativeTuner")]
    tracked = [d for _, d in actions if d.startswith("ApplyRisConfig by RisCodebookTracker")]
    full_sweep = model.half * len(oracle.HV4_STATES)
    if not tuned or not tracked:
        problems.append(f"{len(tuned)} tuner and {len(tracked)} tracker actions; both must act")
    problems += [f"tuner action {d!r}: feedback != {full_sweep}" for d in tuned
                 if not d.endswith(f"feedback={full_sweep}")]
    problems += [f"tracker action {d!r}: feedback != 0" for d in tracked if not d.endswith("feedback=0")]

    books = {part: read_codebook(path) for part, path in codebooks.items()}
    margin = 2 * model.near_rt  # either order of same-instant events gives the same state
    checked = n_samples = 0
    for t, cov, rates in read_samples(os.path.join(out_dir, "metrics.csv")):
        n_samples += 1
        if t == 0:
            config = (0,) * len(model.elements)
        else:
            policy, since = model.policy_at(t)
            if (policy != "fast-recovery" or t < margin or t - since < margin
                    or t - model.last_move(t) < margin):
                continue
            pos = model.positions(t)
            config = []
            for part in sorted(model.parts):
                refs, words = books[part]
                config += words[oracle.nearest_index(refs, pos[model.parts[part]])]
            config = tuple(config)
        want = model.rates(t, config)
        checked += 1
        for ue, allowed in want.items():
            if not any(abs(rates[ue] - r) <= RATE_TOL for r in allowed):
                problems.append(f"t={t} {ue}: rate {rates[ue]} != oracle {sorted(allowed)}")
        served = sum(1 for r in rates.values() if r > 0)
        if abs(served / len(rates) - cov) > COV_TOL:
            problems.append(f"t={t}: {served} UEs with rate > 0 but coverage {cov}")
        if len(problems) > 20:
            return problems
    if checked < n_samples // 4:
        problems.append(f"only {checked} of {n_samples} samples had a configuration fixed by the inputs")
    return problems


# --- plan_blocked ---------------------------------------------------------------------------


def candidate_lattice(bounds, spacing: float, altitude: float) -> list[tuple]:
    (x0, y0), (x1, y1) = bounds
    xs = [x0 + i * spacing for i in range(int(math.floor((x1 - x0) / spacing + 1e-9)) + 1)]
    ys = [y0 + j * spacing for j in range(int(math.floor((y1 - y0) / spacing + 1e-9)) + 1)]
    return [(x, y, altitude) for x in xs for y in ys]


def check_plan(scenario: dict, plan_path: str) -> list[str]:
    problems: list[str] = []
    with open(plan_path) as fh:
        plan = json.load(fh)
    cfg = scenario["planner"]
    chan = oracle.Channel(scenario.get("channel", {}))
    threshold = float(cfg.get("snr_threshold_db", 3.0))
    bh_threshold = float(cfg.get("backhaul_threshold_db", 10.0))
    ues = _nodes(scenario, "UE")
    access, boxes = _post_strike(scenario)
    _, oos = _coverage(chan, access, ues, boxes, threshold)
    placements = plan["placements"]
    if not placements:
        return problems + ["plan places no node although UEs are out of service"] if oos else problems

    est, _ = _coverage(chan, access + placements, ues, boxes, threshold)
    if abs(est - plan["estimated_coverage_ratio"]) > 1e-12:
        problems.append(f"estimated coverage {plan['estimated_coverage_ratio']} != oracle {est}")

    # The backhaul is a forest: every placement attaches once, to a root
    # (gateway or satellite) or to a placement attached before it.
    roots = {n["id"] for n in scenario["nodes"] if n["kind"] in ("Gateway", "Satellite")}
    satellites = {n["id"] for n in _nodes(scenario, "Satellite")}
    positions = {n["id"]: tuple(n["position"]) for n in scenario["nodes"]}
    positions.update({p["id"]: tuple(p["position"]) for p in placements})
    by_id = {p["id"]: p for p in placements}
    attached = set()
    for edge in plan["backhaul"]:
        child, parent = edge["child"], edge["parent"]
        if child not in by_id or child in attached:
            problems.append(f"edge {child} -> {parent}: unknown or repeated child")
            continue
        if parent not in roots and parent not in attached:
            problems.append(f"edge {child} -> {parent}: parent is neither a root nor attached")
        attached.add(child)
        if edge["via"] == "direct" and parent not in satellites:
            c = by_id[child]
            snr = chan.link_snr_db(positions[parent], float(c["tx_power_dbm"]), float(c["freq_ghz"]),
                                   positions[child], boxes)
            if snr < bh_threshold - 1e-9 or abs(snr - edge["snr_db"]) > 1e-5:
                problems.append(f"edge {child} -> {parent}: oracle SNR {snr} vs reported "
                                f"{edge['snr_db']}, threshold {bh_threshold}")
    if attached != set(by_id):
        problems.append(f"placements without backhaul: {sorted(set(by_id) - attached)}")

    # Greedy placement against the brute-force optimum on the same lattice.
    altitude = float(cfg.get("uav_altitude_m", 120.0))
    candidates = candidate_lattice(cfg["candidate_bounds"], float(cfg.get("candidate_spacing_m", 500.0)),
                                   altitude)
    oos_index = {ue: i for i, ue in enumerate(sorted(oos))}
    tx_dbm, freq = float(cfg.get("uav_tx_power_dbm", 35.0)), float(cfg.get("uav_freq_ghz", 3.5))

    def mask(pos) -> int:
        m = 0
        for ue in ues:
            if ue["id"] in oos_index and chan.link_snr_db(pos, tx_dbm, freq, ue["position"], boxes) >= threshold:
                m |= 1 << oos_index[ue["id"]]
        return m

    masks = [mask(c) for c in candidates]
    lattice = {c: i for i, c in enumerate(candidates)}
    greedy = 0
    for p in placements:
        key = tuple(float(v) for v in p["position"])
        if key not in lattice:
            problems.append(f"placement {p['id']} at {key} is not a lattice candidate")
            continue
        greedy |= masks[lattice[key]]
    got = bin(greedy).count("1")
    best = oracle.max_coverage(masks, int(cfg.get("max_nodes", 3)))
    if got < GREEDY_BOUND * best - 1e-9:
        problems.append(f"greedy covers {got} out-of-service UEs, brute force {best}")
    return problems
