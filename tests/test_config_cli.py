import gc
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from resilient_marl import cli
from resilient_marl.cli import check_graph, main, run_experiment, run_sweep
from resilient_marl.config import (
    ConfigError,
    build_simulation,
    config_from_dict,
    parse_config,
)
from resilient_marl.engine import StepSizeSchedule
from resilient_marl.mdp import generate_random_mdp

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIGS = ROOT / "demos" / "configs"

MINIMAL = """
n_agents: 3
rounds: 50
mdp:
  n_states: 3
  actions_per_agent: 2
graph:
  topology: ring
"""


def small_config(**overrides):
    doc = yaml.safe_load(MINIMAL)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return config_from_dict(doc)


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 0
        assert cfg.trim_f == 0
        assert cfg.log_interval == 100
        assert cfg.features.kind == "tabular"
        assert cfg.critic_step == StepSizeSchedule.polynomial(1.0, 0.65)
        assert cfg.actor_step == StepSizeSchedule.polynomial(1.0, 0.85)
        assert cfg.adversaries is None
        assert cfg.record_trims is True
        assert cfg.mdp.reward_range == (0.0, 4.0)

    def test_missing_graph(self):
        doc = yaml.safe_load(MINIMAL)
        del doc["graph"]
        with pytest.raises(ConfigError, match="graph"):
            config_from_dict(doc)

    def test_unknown_strategy_lists_valid(self):
        with pytest.raises(ConfigError, match="wormhole") as err:
            small_config(adversaries={"count": 1, "strategy": "wormhole"})
        assert "constant" in str(err.value)

    def test_unknown_top_level_key(self):
        doc = yaml.safe_load(MINIMAL)
        doc["rounds_limit"] = 3
        with pytest.raises(ConfigError, match="rounds_limit"):
            config_from_dict(doc)

    def test_inconsistent_adversary_ids(self):
        with pytest.raises(ConfigError, match="adversaries.ids"):
            small_config(adversaries={"ids": [7], "strategy": "selfish"})

    def test_error_paths_are_dotted(self):
        with pytest.raises(ConfigError, match=r"mdp\.n_states"):
            small_config(mdp={"n_states": 1})
        with pytest.raises(ConfigError, match=r"graph\.topology"):
            small_config(graph={"topology": "moebius"})
        with pytest.raises(ConfigError, match=r"critic_step"):
            small_config(critic_step={"kind": "constant", "scale": 2.0})

    def test_topology_specific_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"graph: unknown field\(s\) \['edges'\]"):
            small_config(graph={"topology": "ring", "edges": [[0, 1]]})
        with pytest.raises(ConfigError, match=r"graph: unknown field\(s\) \['p'\]"):
            small_config(graph={"topology": "complete", "p": 0.5})

    @pytest.mark.parametrize("section, value, message", [
        ("graph", {"zz": 1}, "graph: missing required field 'topology'"),
        ("graph", {"topology": "ring", "edges": [], "p": 0.5},
         "graph: unknown field(s) ['edges', 'p']; allowed: ['require_connected', 'topology']"),
        ("graph", {"topology": "edges", "p": 0.5},
         "graph: unknown field(s) ['p']; allowed: ['edges', 'phases', 'require_connected', 'topology']"),
        ("graph", {"topology": "edges", "edges": "x", "phases": "y"},
         "graph.phases: expected a nonempty list of edge lists"),
        ("mdp", {"kind": "wat", "zz": 1}, "mdp.kind: unknown kind 'wat'; valid: ['random', 'file']"),
        ("mdp", {"kind": "file", "path": 5, "n_states": 3},
         "mdp: unknown field(s) ['n_states']; allowed: ['kind', 'path']"),
        ("adversaries", {"count": 1, "strategy": "drift", "params": {"start": "x"}},
         "adversaries.params.start: expected a number, got 'x'"),
        ("reward_noise", -1, "reward_noise: must be nonnegative"),
    ])
    def test_first_of_two_faults_reported(self, section, value, message):
        """Of two faults, the one the parser meets first is reported: a section's
        own discriminator (kind, topology, or the strategy its params take), then
        keys that do not apply to it, then each field in declaration order."""
        doc = yaml.safe_load(MINIMAL)
        doc[section] = value
        doc["record_trims"] = "x"  # a later fault in every case
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc)
        assert str(err.value) == message

    def test_round_trip_identity(self):
        cfg = small_config(
            trim_f=1,
            adversaries={"ids": [0], "strategy": "drift",
                         "params": {"start": 0.5, "rate": 0.01}, "enforce_f_local": False},
            features={"kind": "projection", "dim": 4, "seed": 9},
            early_stop={"disagreement": 1e-4, "actor_update": 1e-6, "patience": 5},
        )
        again = parse_config(cfg.to_yaml())
        assert again == cfg

    def test_echo_is_fixed(self):
        """The echo is hashed into every run's artifacts (config_sha256), so its form is fixed."""
        common = {
            "n_agents": 3, "rounds": 50, "seed": 0, "trim_f": 0,
            "mdp": {"kind": "random", "n_states": 3, "actions_per_agent": [2],
                    "reward_range": [0.0, 4.0], "seed": None},
            "critic_step": {"kind": "polynomial", "scale": 1.0, "exponent": 0.65},
            "actor_step": {"kind": "polynomial", "scale": 1.0, "exponent": 0.85},
            "log_interval": 100, "record_trims": True, "check_regular_hull": False,
            "snapshot_params": False, "reward_noise": 0.0, "initial_state": 0,
            "early_stop": None, "out": None,
        }
        cfg = small_config(
            graph={"topology": "edges", "phases": [[[0, 1]], [[1, 2], [2, 0]]]},
            features={"kind": "tabular"},
            critic_step={"kind": "constant", "scale": 0.5},
            adversaries={"count": 1, "strategy": "noise", "params": {"scale": 2}},
        )
        assert cfg.to_dict() == {
            **common,
            "graph": {"topology": "edges", "phases": [[[0, 1]], [[1, 2], [2, 0]]], "require_connected": True},
            "features": {"kind": "tabular"},
            "critic_step": {"kind": "constant", "scale": 0.5},
            "adversaries": {"strategy": "noise", "params": {"scale": 2}, "enforce_f_local": True, "count": 1},
        }
        cfg = small_config(
            graph={"topology": "erdos_renyi", "p": 1},
            features={"kind": "projection", "dim": 4},
            adversaries={"ids": [2, 0], "strategy": "constant", "params": {"value": 3}},
            early_stop={"disagreement": 1, "actor_update": 0.5},
        )
        assert cfg.to_dict() == {
            **common,
            "graph": {"topology": "erdos_renyi", "p": 1.0, "seed": 0, "require_connected": True},
            "features": {"kind": "projection", "dim": 4, "seed": 0},
            "adversaries": {"strategy": "constant", "params": {"value": 3}, "enforce_f_local": True,
                            "ids": [0, 2]},
            "early_stop": {"disagreement": 1.0, "actor_update": 0.5, "patience": 100},
        }

    def test_unparseable_document(self):
        with pytest.raises(ConfigError, match="unparseable"):
            parse_config("n_agents: [unclosed")

    def test_joint_action_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            small_config(n_agents=13, mdp={"n_states": 3, "actions_per_agent": 2})


class TestShippedDocuments:
    """Every config the repository ships parses under the strict format and
    parses back from its own echo to an equal config with the same echo."""

    @staticmethod
    def assert_round_trips(doc):
        cfg = config_from_dict(doc)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(cfg.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("path", [
        *(DEMO_CONFIGS / name for name in ("cooperative.yaml", "defense.yaml")),
        *sorted((ROOT / "bench" / "workloads").glob("*.yaml")),
    ], ids=lambda path: f"{path.parent.name}/{path.name}")
    def test_config_file(self, path):
        self.assert_round_trips(yaml.safe_load(path.read_text()))

    def test_sweep_runs_as_merged(self, tmp_path, monkeypatch):
        docs = []
        monkeypatch.setattr(cli, "_sweep_worker", lambda task: docs.append(task[0]) or {})
        sweep_doc = yaml.safe_load((DEMO_CONFIGS / "f_sweep.yaml").read_text())
        run_sweep(sweep_doc, tmp_path / "s", quiet=True)
        assert [doc["trim_f"] for doc in docs] == [0, 1, 2]
        for doc in docs:
            self.assert_round_trips(doc)


class TestBuildSimulation:
    def test_minimal_builds(self):
        sim = build_simulation(small_config())
        assert sim.mdp.n_agents == 3
        assert sim.graph.n_nodes == 3
        assert sim.features.dim == sim.mdp.n_states * sim.mdp.n_joint_actions

    def test_mdp_seed_defaults_to_master(self):
        a = build_simulation(small_config(seed=5))
        b = build_simulation(small_config(seed=5))
        c = build_simulation(small_config(seed=6))
        assert np.array_equal(a.mdp.transition, b.mdp.transition)
        assert not np.array_equal(a.mdp.transition, c.mdp.transition)

    def _file_config(self, path):
        doc = yaml.safe_load(MINIMAL)
        doc["mdp"] = {"kind": "file", "path": str(path)}
        return config_from_dict(doc)

    def test_mdp_from_file(self, tmp_path):
        mdp = generate_random_mdp(3, 3, 2, (0.0, 1.0), seed=3)
        path = tmp_path / "model.json"
        mdp.save(path)
        sim = build_simulation(self._file_config(path))
        assert np.array_equal(sim.mdp.transition, mdp.transition)

    def test_mdp_file_agent_mismatch(self, tmp_path):
        mdp = generate_random_mdp(2, 3, 2, (0.0, 1.0), seed=3)
        path = tmp_path / "model.json"
        mdp.save(path)
        with pytest.raises(ConfigError, match="agents"):
            build_simulation(self._file_config(path))

    def test_random_placement_is_f_local_and_seeded(self):
        cfg = small_config(
            n_agents=6,
            trim_f=1,
            adversaries={"count": 1, "strategy": "constant", "params": {"value": 2.0}},
        )
        a = build_simulation(cfg).graph.adversary_set
        b = build_simulation(cfg).graph.adversary_set
        assert a == b and len(a) == 1

    def test_non_local_explicit_ids_rejected(self):
        cfg = small_config(
            n_agents=4,
            trim_f=1,
            graph={"topology": "complete"},
            adversaries={"ids": [0, 1], "strategy": "constant", "params": {"value": 1.0}},
        )
        with pytest.raises(ConfigError, match="local"):
            build_simulation(cfg)

    def test_disconnected_graph_rejected(self):
        cfg_doc = yaml.safe_load(MINIMAL)
        cfg_doc["graph"] = {"topology": "edges", "edges": [[0, 1]]}
        with pytest.raises(ConfigError, match="disconnected"):
            build_simulation(config_from_dict(cfg_doc))


class TestSharedTables:
    """Seed-independent model tables are built once per process and shared read-only."""

    def projection_config(self, features=(), **overrides):
        features = {"kind": "projection", "dim": 4, "seed": 0, **dict(features)}
        return small_config(features=features, **overrides)

    def test_builds_share_table_and_mdp(self):
        cfg = self.projection_config()
        a, b = build_simulation(cfg), build_simulation(cfg)
        assert a.mdp is b.mdp
        assert a.features._rows is b.features._rows
        # runs that differ only in seed or in a section the tables do not read share them too
        c = build_simulation(self.projection_config(seed=9, mdp={"seed": 0}, trim_f=1))
        d = build_simulation(self.projection_config(seed=4, mdp={"seed": 0}))
        assert c.mdp is d.mdp and c.features._rows is a.features._rows

    def test_shared_tables_are_read_only(self):
        a = build_simulation(self.projection_config())
        b = build_simulation(self.projection_config())
        for table in (a.features._rows, a.mdp.transition, a.mdp.rewards, a.mdp.transition_cdf):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0
        assert np.array_equal(a.mdp.transition, b.mdp.transition)

    def test_table_bits_unchanged(self):
        sim = build_simulation(self.projection_config(features={"dim": 5, "seed": 11}))
        n_rows = sim.mdp.n_states * sim.mdp.n_joint_actions
        expected = np.random.default_rng(11).standard_normal((n_rows, 5)) / np.sqrt(5)
        assert sim.features._rows.tobytes() == expected.tobytes()

    def test_other_sections_get_their_own_tables(self):
        base = build_simulation(self.projection_config())
        other_dim = build_simulation(self.projection_config(features={"dim": 5}))
        other_seed = build_simulation(self.projection_config(features={"seed": 1}))
        other_mdp = build_simulation(self.projection_config(mdp={"n_states": 4}))
        tables = [sim.features._rows for sim in (base, other_dim, other_seed, other_mdp)]
        assert len({id(t) for t in tables}) == 4
        assert other_dim.features._rows.shape == (24, 5)
        assert not np.array_equal(base.features._rows, other_seed.features._rows)
        assert other_mdp.mdp is not base.mdp and other_mdp.features._rows.shape == (32, 4)
        # the MDP is keyed by its resolved seed; the table by shape and feature seed alone
        other_model = build_simulation(self.projection_config(seed=1))
        assert other_model.mdp is not base.mdp
        assert not np.array_equal(other_model.mdp.transition, base.mdp.transition)
        assert other_model.features._rows is base.features._rows

    def test_tables_are_freed_with_their_last_simulation(self):
        # nothing keeps a model alive after its runs: a sweep over distinct
        # models holds one at a time
        sim = build_simulation(self.projection_config(features={"seed": 21}, mdp={"seed": 2024}))
        refs = [weakref.ref(sim.mdp), weakref.ref(sim.features._rows)]
        del sim
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_file_mdp_is_read_again(self, tmp_path):
        path = tmp_path / "model.json"
        doc = yaml.safe_load(MINIMAL)
        doc["mdp"] = {"kind": "file", "path": str(path)}
        cfg = config_from_dict(doc)
        generate_random_mdp(3, 3, 2, (0.0, 1.0), seed=3).save(path)
        first = build_simulation(cfg)
        changed = generate_random_mdp(3, 3, 2, (0.0, 1.0), seed=4)
        changed.save(path)
        second = build_simulation(cfg)
        assert second.mdp is not first.mdp
        assert np.array_equal(second.mdp.transition, changed.transition)
        assert not np.array_equal(second.mdp.transition, first.mdp.transition)

    def test_second_build_allocates_no_tables(self):
        # the projection_periodic workload's shape: 8 agents, 8 states, 256
        # joint actions and a dim-128 table (2 MB), the model another 0.4 MB
        cfg = small_config(
            n_agents=8,
            mdp={"n_states": 8, "seed": 7},
            trim_f=1,
            features={"kind": "projection", "dim": 128, "seed": 3},
            adversaries={"ids": [7], "strategy": "noise", "params": {"scale": 5.0, "seed": 1}},
            graph={"topology": "edges", "phases": [
                [[i, (i + 1) % 8] for i in range(8)] + [[i, i + 4] for i in range(4)],
                [[i, (i + 2) % 8] for i in range(8)] + [[i, (i + 3) % 8] for i in range(8)],
            ]},
        )
        first = build_simulation(cfg)
        tracemalloc.start()
        try:
            second = build_simulation(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak
        assert second.features._rows is first.features._rows


class TestRunExperiment:
    def test_artifacts_written_and_parse_back(self, tmp_path):
        cfg = small_config(rounds=40, log_interval=20)
        summary = run_experiment(cfg, tmp_path / "out", quiet=True)
        records = [
            json.loads(line)
            for line in (tmp_path / "out" / "trajectory.jsonl").read_text().splitlines()
        ]
        assert records[0]["kind"] == "meta"
        assert records[0]["config"]["n_agents"] == 3
        back = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert back == summary
        params = json.loads((tmp_path / "out" / "final_params.json").read_text())
        assert len(params["agents"]) == 3
        assert all(p["role"] == "regular" for p in params["agents"])

    def test_rerun_identical_summary(self, tmp_path):
        cfg = small_config(rounds=60)
        run_experiment(cfg, tmp_path / "a", quiet=True)
        run_experiment(cfg, tmp_path / "b", quiet=True)
        for name in ("summary.json", "trajectory.jsonl", "final_params.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCheckGraph:
    def test_ring_with_adversary(self):
        cfg = small_config(
            n_agents=6,
            trim_f=1,
            adversaries={"ids": [2], "strategy": "selfish"},
        )
        report = check_graph(cfg)
        assert report["f_local"] is True
        assert report["connected"] == [True]
        assert report["adversaries"] == [2]
        assert report["adversary_fraction_max"] == 0.5

    def test_path_graph_robustness(self):
        doc = yaml.safe_load(MINIMAL)
        doc["n_agents"] = 4
        doc["graph"] = {"topology": "edges", "edges": [[0, 1], [1, 2], [2, 3]]}
        report = check_graph(config_from_dict(doc))
        assert report["max_r_robust"] == 1  # 2-robust is false for a path

    def test_degrees_and_fraction_cover_every_phase(self):
        # phase 0 is a ring (degree 2, fraction 1/2 next to adversary 4);
        # in phase 1 adversary 4 has degree 4 and is node 3's only neighbour
        report = check_graph(small_config(
            n_agents=5,
            trim_f=1,
            adversaries={"ids": [4], "strategy": "selfish"},
            graph={"topology": "edges", "phases": [
                [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
                [[4, 0], [4, 1], [4, 2], [4, 3], [0, 1], [1, 2]],
            ]},
        ))
        assert report["connected"] == [True, True]
        assert report["degrees"] == {"min": 1, "mean": 2.2, "max": 4}
        assert report["adversary_fraction_max"] == 1.0

    def test_disconnected_reported_not_rejected(self):
        doc = yaml.safe_load(MINIMAL)
        doc["graph"] = {"topology": "edges", "edges": [[0, 1]]}
        report = check_graph(config_from_dict(doc))
        assert report["connected"] == [False]


class TestCliMain:
    def write_config(self, tmp_path, **overrides):
        doc = yaml.safe_load(MINIMAL)
        doc.update(overrides)
        path = tmp_path / "experiment.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path, rounds=30)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert "J=" in capsys.readouterr().out

    def test_seed_override_changes_run(self, tmp_path):
        path = self.write_config(tmp_path, rounds=30)
        main(["run", "--config", str(path), "--out", str(tmp_path / "a"), "--quiet"])
        main(["run", "--config", str(path), "--seed", "99", "--out", str(tmp_path / "b"), "--quiet"])
        sa = json.loads((tmp_path / "a" / "summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert sa["seed"] == 0 and sb["seed"] == 99
        assert sa["final_j_oracle"] != sb["final_j_oracle"]

    def test_seed_override_on_constant_schedule(self, tmp_path):
        """``--seed`` re-parses the config's own echo, which must not hold a field
        that does not apply, such as a constant schedule's exponent."""
        path = self.write_config(tmp_path, rounds=10, actor_step={"kind": "constant", "scale": 0.0})
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--seed", "5", "--out", str(out), "--quiet"]) == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        assert echo["seed"] == 5 and echo["actor_step"] == {"kind": "constant", "scale": 0.0}
        assert config_from_dict(echo) == config_from_dict(dict(yaml.safe_load(path.read_text()), seed=5))

    def test_impossible_placement_exit_code(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            n_agents=4,
            trim_f=1,
            graph={"topology": "complete"},
            adversaries={"count": 2, "strategy": "constant", "params": {"value": 1.0}},
        )
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        assert "local placement" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("rounds: 5\n")
        assert main(["run", "--config", str(path), "--quiet", "--out", str(tmp_path / "y")]) == 2
        assert "n_agents" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, path", [
        ({"mdp": {"actions_per_agent": 1}}, "mdp.actions_per_agent"),
        ({"mdp": {"actions_per_agent": True}}, "mdp.actions_per_agent"),
        ({"seed": -1}, "seed"),
        ({"mdp": {"seed": -1}}, "mdp.seed"),
        ({"features": {"kind": "projection", "dim": 4, "seed": -1}}, "features.seed"),
        ({"graph": {"topology": "erdos_renyi", "p": 1.0, "seed": -1}}, "graph.seed"),
        ({"initial_state": 9}, "initial_state"),
        ({"reward_noise": float("inf")}, "reward_noise"),
        ({"mdp": {"reward_range": [0, float("nan")]}}, "mdp.reward_range[1]"),
        ({"out": 5}, "out"),
        ({"adversaries": {"ids": [0], "strategy": "constant", "params": {"value": "abc"}}},
         "adversaries.params.value"),
        ({"adversaries": {"ids": [0], "strategy": "noise", "params": {"scale": 1.0, "seed": "x"}}},
         "adversaries.params.seed"),
        ({"n_agents": 5, "adversaries": {"ids": [0], "strategy": "drift",  # critic dim 3 * 2**5 = 96
                                         "params": {"start": [1, 2], "rate": 0.1}}},
         "adversaries.params.start"),
        ({"graph": {"topology": "edges", "phases": [[[0, 1], [1, 2], [2, 0]]], "edges": [[0, 1]]}}, "graph"),
        ({"features": {"kind": "tabular", "dim": 7, "seed": 1}}, "features"),
        ({"actor_step": {"kind": "constant", "scale": 0.1, "exponent": 0.5}}, "actor_step"),
    ])
    def test_bad_value_rejected_with_its_path(self, tmp_path, capsys, monkeypatch, overrides, path):
        """A value the run could not use is a config error (exit 2) naming the field."""
        monkeypatch.setenv("RESILIENT_MARL_OUT", str(tmp_path / "root"))
        doc = yaml.safe_load(MINIMAL)
        for key, value in overrides.items():
            if isinstance(value, dict) and isinstance(doc.get(key), dict):
                doc[key].update(value)
            else:
                doc[key] = value
        config = tmp_path / "experiment.yaml"
        config.write_text(yaml.safe_dump(doc))
        assert main(["run", "--config", str(config), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "root").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "check-graph"])
    def test_directory_as_config_exit_code(self, tmp_path, capsys, command):
        argv = [command, "--config", str(tmp_path)]
        if command != "check-graph":
            argv += ["--out", str(tmp_path / "o"), "--quiet"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_under_a_file_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path, rounds=5)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "--config", str(path), "--out", str(blocker / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, artifact", [
        ("run", "summary.json"), ("sweep", "sweep_summary.json"), ("run", "trajectory.jsonl"),
    ])
    def test_failed_artifact_write_exit_code(self, tmp_path, capsys, command, artifact):
        """Once the run is done, a failed artifact write is a runtime fault (exit 1)."""
        doc = dict(yaml.safe_load(MINIMAL), rounds=5)
        if command == "sweep":
            doc = {"base": doc, "runs": [{"overrides": {}}]}
        path = tmp_path / "experiment.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("runtime error: cannot write the ")

    def test_failed_streamed_write_exit_code(self, tmp_path, capsys, monkeypatch):
        """A write that fails while the run streams its trajectory is the same
        runtime fault, and leaves no trajectory.jsonl."""
        from resilient_marl import cli

        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli._TrajectoryBody, "row", full_disk)
        path = self.write_config(tmp_path, rounds=5)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("runtime error: cannot write the ")
        assert list(out.iterdir()) == []

    def test_check_graph_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["check-graph", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "connected[phase 0]: True" in out
        assert "r-robustness" in out

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RESILIENT_MARL_OUT", str(tmp_path / "root"))
        path = self.write_config(tmp_path, rounds=20)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert (tmp_path / "root" / "experiment.seed0" / "summary.json").exists()


class TestSweep:
    def test_sweep_runs_with_derived_seeds(self, tmp_path):
        base = yaml.safe_load(MINIMAL)
        base["rounds"] = 30
        base["seed"] = 10
        sweep_doc = {
            "base": base,
            "runs": [
                {"name": "plain", "overrides": {}},
                {"name": "trimmed", "overrides": {"trim_f": 1}},
                {"overrides": {"seed": 77}},
            ],
        }
        results = run_sweep(sweep_doc, tmp_path / "sweep", jobs=2, quiet=True)
        assert [r["seed"] for r in results] == [10, 11, 77]
        assert (tmp_path / "sweep" / "plain" / "summary.json").exists()
        assert (tmp_path / "sweep" / "trimmed" / "summary.json").exists()
        assert (tmp_path / "sweep" / "run_002" / "summary.json").exists()
        index = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
        assert len(index) == 3

    def test_sweep_starts_no_more_workers_than_runs(self, tmp_path, monkeypatch):
        """A fork-started pool launches all its workers at the first submit, so
        ``jobs`` is capped at the number of runs."""
        import concurrent.futures

        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        base = yaml.safe_load(MINIMAL)
        base["rounds"] = 5
        sweep_doc = {"base": base, "runs": [{"overrides": {}}, {"overrides": {"seed": 5}}]}
        results = run_sweep(sweep_doc, tmp_path / "s", jobs=64, quiet=True)
        assert started == [2]
        assert [r["seed"] for r in results] == [0, 5]

    def test_sweep_validates_before_running(self, tmp_path):
        base = yaml.safe_load(MINIMAL)
        sweep_doc = {"base": base, "runs": [{"overrides": {"trim_f": -1}}]}
        with pytest.raises(ConfigError, match="trim_f"):
            run_sweep(sweep_doc, tmp_path / "s", quiet=True)

    def test_sweep_subcommand(self, tmp_path):
        base = yaml.safe_load(MINIMAL)
        base["rounds"] = 20
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump({"base": base, "runs": [{"overrides": {}}]}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--jobs", "1", "--quiet"]) == 0
        assert (tmp_path / "o" / "sweep_summary.json").exists()

    def test_sweep_yaml_syntax_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text("base: [1\nruns: x\n")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "unparseable" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "3"]])
    def test_sweep_non_mapping_base_exit_code(self, tmp_path, capsys, seed_args):
        path = tmp_path / "sweep.yaml"
        path.write_text("base: [1, 2]\nruns:\n  - overrides: {}\n")
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        assert main(argv + seed_args) == 2
        assert "<sweep>.base" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_seed_without_base_exit_code(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text("runs:\n  - overrides: {}\n")
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet", "--seed", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: <sweep>: sweep document needs 'base' and 'runs'\n"

    @pytest.mark.parametrize("sweep, path", [
        ({"runs": [{"name": 5}]}, "<sweep>.runs[0].name"),
        ({"runs": [{"overrides": [1, 2]}]}, "<sweep>.runs[0].overrides"),
        ({"base": {"seed": "x"}}, "<sweep>.base.seed"),
        ({"base": {"seed": True}}, "<sweep>.base.seed"),
        ({"runs": [{"overides": {"trim_f": 1}}]}, "<sweep>.runs[0]"),
        ({"note": "x"}, "<sweep>"),
        ({"runs": [{"name": "a"}, {"name": "a", "overrides": {"trim_f": 1}}]}, "<sweep>.runs[1].name"),
        ({"runs": [{"name": "../escaped"}]}, "<sweep>.runs[0].name"),
        ({"runs": [{"name": ".."}]}, "<sweep>.runs[0].name"),
        ({"runs": [{"name": ""}]}, "<sweep>.runs[0].name"),
        ({"runs": [{}, {}, {"overrides": {"trim_f": -1}}]}, "<sweep>.runs[2]"),
    ], ids=["name_not_string", "overrides_not_mapping", "seed_string", "seed_bool", "run_key_typo",
            "unknown_top_key", "duplicate_name", "name_escapes", "name_dotdot", "name_empty",
            "bad_run_config"])
    def test_bad_sweep_rejected_before_any_run(self, tmp_path, capsys, sweep, path):
        """A malformed sweep, or one that would run with settings it does not state or
        write outside --out or over another run, exits 2 naming the field."""
        base = dict(yaml.safe_load(MINIMAL), rounds=5)
        doc = {"base": base, "runs": [{"overrides": {}}]}
        for key, value in sweep.items():
            doc[key] = dict(base, **value) if key == "base" else value
        config = tmp_path / "sweep.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "box" / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "box").exists()

    def test_null_overrides_run_the_base(self, tmp_path):
        base = dict(yaml.safe_load(MINIMAL), rounds=5, seed=3)
        results = run_sweep({"base": base, "runs": [{"name": "b", "overrides": None}]},
                            tmp_path / "s", quiet=True)
        assert [r["seed"] for r in results] == [3]
        assert (tmp_path / "s" / "b" / "summary.json").exists()

    def test_null_seed_override_takes_the_derived_seed(self, tmp_path):
        base = dict(yaml.safe_load(MINIMAL), rounds=5, seed=10)
        runs = [{"overrides": {}}, {"overrides": {"seed": None}}]
        results = run_sweep({"base": base, "runs": runs}, tmp_path / "s", quiet=True)
        assert [r["seed"] for r in results] == [10, 11]
