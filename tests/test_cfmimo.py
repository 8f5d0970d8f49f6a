"""User-centric AP clustering: the top L APs of each UE by large-scale gain."""

import numpy as np
import pytest

from rrsim.cfmimo import top_l_clusters
from rrsim.ric import Action, Controller, ControllerApp
from rrsim.scenario import scenario_from_dict
from rrsim.simcore import Kernel
from rrsim.world import World


class TestCluster:
    AP_IDS = ("ap1", "ap2", "ap3")
    UE_IDS = ("ue1", "ue2")
    # (n_aps, n_ues): the rows follow AP_IDS, the columns UE_IDS.
    GAINS = np.array([[-80.0, -60.0], [-70.0, -95.0], [-90.0, -60.0]])

    def test_top_l_by_gain(self):
        assignment = top_l_clusters(self.AP_IDS, self.UE_IDS, self.GAINS, 2)
        assert assignment.serving["ue1"] == ("ap2", "ap1")

    def test_gain_tie_prefers_lower_ap_id(self):
        assignment = top_l_clusters(self.AP_IDS, self.UE_IDS, self.GAINS, 1)
        assert assignment.serving["ue2"] == ("ap1",)

    def test_inactive_aps_excluded(self):
        """A `Recluster` takes the APs of the link budget, so a failed AP
        serves no cluster."""
        nodes = [{"id": "gw", "kind": "Gateway", "position": [0, 0, 10]}]
        nodes += [{"id": ap, "kind": "TerrestrialBS", "position": [300 * i, 0, 25], "tx_power_dbm": 40}
                  for i, ap in enumerate(self.AP_IDS)]
        nodes += [{"id": "ue1", "kind": "UE", "position": [100, 0, 1.5]}]
        world = World(scenario_from_dict({"nodes": nodes}))
        ctl = Controller(world, Kernel(0))
        app = ControllerApp("x", "NearRT", lambda c: [], 100)
        ctl.apply_action(Action("Recluster", {"L": 2}), app)
        assert ctl.cluster_assignment.serving["ue1"] == ("ap1", "ap2")
        world.apply_strike(["ap1"], [], [], 0)
        ctl.apply_action(Action("Recluster", {"L": 2}), app)
        assert ctl.cluster_assignment.serving["ue1"] == ("ap2", "ap3")

    def test_max_aps_validated(self):
        with pytest.raises(ValueError):
            top_l_clusters(self.AP_IDS, self.UE_IDS, self.GAINS, 0)
