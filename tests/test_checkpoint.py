"""Checkpoint format tests: bit-exact round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from prunelab import checkpoint
from prunelab.cli import main
from prunelab.errors import FormatError, InputError
from prunelab.nn import build_reference_models


@pytest.fixture(params=["mlp_small", "cnn_small", "cnn_residual"])
def model(request):
    m = build_reference_models(seed=7)[request.param]
    # dirty the state so round trips cover more than init values
    m.forward(np.random.default_rng(1).normal(size=(4, 1, 16, 16)).astype(np.float32), "train")
    return m


class TestRoundTrip:
    def test_params_and_state_survive(self, model, tmp_path):
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        loaded = checkpoint.load_model(path)
        for (_, na, name, pa), (_, nb, _, pb) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(pa, pb), f"{na.name}.{name}"
        for a, b in zip(model.nodes, loaded.nodes):
            for k in a.state:
                assert np.array_equal(a.state[k], b.state[k]), f"{a.name}.{k}"

    def test_save_load_save_is_bit_exact(self, model, tmp_path):
        p1, p2 = tmp_path / "a.npkt", tmp_path / "b.npkt"
        checkpoint.save_model(p1, model)
        checkpoint.save_model(p2, checkpoint.load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_topology_and_sites_survive(self, model, tmp_path):
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        loaded = checkpoint.load_model(path)
        assert loaded.input_shape == model.input_shape
        assert loaded.num_classes == model.num_classes
        assert [n.kind for n in loaded.nodes] == [n.kind for n in model.nodes]
        assert [n.refs for n in loaded.nodes] == [n.refs for n in model.nodes]
        assert [(s.site_id, s.node_index, s.channels) for s in loaded.sites] == [
            (s.site_id, s.node_index, s.channels) for s in model.sites
        ]
        assert loaded.non_prunable == model.non_prunable

    def test_masks_survive(self, model, tmp_path):
        site = model.sites[0]
        keep = np.ones(site.channels, np.float32)
        keep[0] = 0.0
        model.masks[site.node_index] = keep
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        loaded = checkpoint.load_model(path)
        assert set(loaded.masks) == {site.node_index}
        assert np.array_equal(loaded.masks[site.node_index], keep)

    def test_forward_agrees_after_reload(self, model, tmp_path):
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        loaded = checkpoint.load_model(path)
        x = np.random.default_rng(3).normal(size=(2, 1, 16, 16)).astype(np.float32)
        a, _ = model.forward(x, "eval")
        b, _ = loaded.forward(x, "eval")
        assert np.array_equal(a, b)

    def test_float64_model_saves_as_float32(self, tmp_path):
        model = build_reference_models(seed=7)["mlp_small"].astype(np.float64)
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        loaded = checkpoint.load_model(path)
        w64 = model.nodes[1].params["weight"]
        assert np.array_equal(loaded.nodes[1].params["weight"], w64.astype(np.float32))


class TestFormatErrors:
    def _saved(self, tmp_path):
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, build_reference_models(seed=7)["mlp_small"])
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="magic"):
            checkpoint.load_model(path)

    def test_bad_version(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="version 99"):
            checkpoint.load_model(path)

    def test_truncated_blob_reports_offsets(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(FormatError, match="truncated"):
            checkpoint.load_model(path)

    def test_truncated_header(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:20])
        with pytest.raises(FormatError, match="truncated"):
            checkpoint.load_model(path)

    def test_corrupt_header_json(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[12] = ord("!")  # first header byte; breaks the JSON
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="header"):
            checkpoint.load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            checkpoint.load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.npkt"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="truncated"):
            checkpoint.load_model(path)


def rewrite_header(path, mutate):
    """Apply mutate to the decoded JSON header and write it back in place,
    keeping the parameter blobs."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    mutate(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length :])


def setter(*keys, value):
    def mutate(header):
        obj = header
        for k in keys[:-1]:
            obj = obj[k]
        obj[keys[-1]] = value
    return mutate


def deleter(*keys):
    def mutate(header):
        obj = header
        for k in keys[:-1]:
            obj = obj[k]
        del obj[keys[-1]]
    return mutate


# cnn_small: node 0 is conv1 (16 channels, no bias), 1 is bn1, 2 is relu1
HEADER_MUTATIONS = {
    "no_nodes": deleter("nodes"),
    "no_sites": deleter("sites"),
    "no_masks": deleter("masks"),
    "no_input_shape": deleter("input_shape"),
    "no_num_classes": deleter("num_classes"),
    "no_non_prunable": deleter("non_prunable"),
    "nodes_int": setter("nodes", value=3),
    "sites_str": setter("sites", value="conv1"),
    "masks_list": setter("masks", value=[]),
    "input_shape_str": setter("input_shape", value="1,16,16"),
    "input_shape_empty": setter("input_shape", value=[]),
    "input_shape_zero": setter("input_shape", value=[1, 0, 16]),
    "input_shape_float": setter("input_shape", value=[1, 16.5, 16]),
    "num_classes_str": setter("num_classes", value="4"),
    "num_classes_bool": setter("num_classes", value=True),
    "num_classes_zero": setter("num_classes", value=0),
    "non_prunable_list": setter("non_prunable", value=[13]),
    "non_prunable_bad_key": setter("non_prunable", value={"fc": "classifier"}),
    "non_prunable_out_of_range": setter("non_prunable", value={"99": "classifier"}),
    "non_prunable_bad_reason": setter("non_prunable", value={"13": 5}),
    "node_not_object": setter("nodes", 2, value="relu"),
    "node_no_kind": deleter("nodes", 0, "kind"),
    "node_no_name": deleter("nodes", 0, "name"),
    "node_no_refs": deleter("nodes", 0, "refs"),
    "node_no_hyper": deleter("nodes", 0, "hyper"),
    "node_no_params": deleter("nodes", 0, "params"),
    "node_kind_int": setter("nodes", 0, "kind", value=7),
    "node_kind_unknown": setter("nodes", 2, "kind", value="softmax"),
    "node_refs_str": setter("nodes", 1, "refs", value="0"),
    "node_refs_float": setter("nodes", 1, "refs", value=[0.5]),
    "node_refs_empty": setter("nodes", 2, "refs", value=[]),
    "node_refs_two": setter("nodes", 2, "refs", value=[0, 1]),
    "node_refs_forward": setter("nodes", 1, "refs", value=[5]),
    "node_refs_below_input": setter("nodes", 1, "refs", value=[-2]),
    "node_hyper_list": setter("nodes", 0, "hyper", value=[]),
    "hyper_unknown": setter("nodes", 0, "hyper", "dilation", value=2),
    "hyper_kernel_str": setter("nodes", 0, "hyper", "kernel", value="3"),
    "hyper_kernel_zero": setter("nodes", 0, "hyper", "kernel", value=0),
    "hyper_channels_negative": setter("nodes", 1, "hyper", "channels", value=-16),
    "hyper_bias_int": setter("nodes", 0, "hyper", "bias", value=1),
    "hyper_eps_str": setter("nodes", 1, "hyper", "eps", value="1e-5"),
    "hyper_missing_kernel": deleter("nodes", 0, "hyper", "kernel"),
    "hyper_on_relu": setter("nodes", 2, "hyper", "kernel", value=2),
    "params_dict": setter("nodes", 0, "params", value={}),
    "params_entry_str": setter("nodes", 0, "params", 0, value="weight"),
    "params_entry_no_shape": deleter("nodes", 0, "params", 0, "shape"),
    "params_shape_str": setter("nodes", 0, "params", 0, "shape", value="16,1,3,3"),
    "params_shape_negative": setter("nodes", 0, "params", 0, "shape", value=[-16, 1, 3, 3]),
    "params_missing": setter("nodes", 1, "params", value=[]),
    "params_unknown": setter("nodes", 0, "params", 0, "name", value="kernel"),
    "site_not_object": setter("sites", 0, value="conv1"),
    "site_no_channels": deleter("sites", 0, "channels"),
    "site_id_int": setter("sites", 0, "site_id", value=1),
    "site_channels_str": setter("sites", 0, "channels", value="16"),
    "site_duplicate_id": setter("sites", 1, "site_id", value="conv1"),
    "mask_str": setter("masks", "0", value="1111"),
    "mask_bad_value": setter("masks", "0", value=[1] * 15 + ["0"]),
    "mask_bad_key": setter("masks", value={"conv1": [1] * 16}),
    "mask_key_out_of_range": setter("masks", value={"99": [1] * 16}),
    "mask_on_relu": setter("masks", value={"2": [1] * 16}),
    "mask_value_two": setter("masks", "0", value=[1] * 15 + [2]),
    "mask_value_half": setter("masks", "0", value=[1] * 15 + [0.5]),
}


class TestHeaderValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        model = build_reference_models(seed=7)["cnn_small"]
        keep = np.ones(16, np.float32)
        keep[3] = 0.0
        model.masks[0] = keep
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        return path

    def test_unmutated_header_loads(self, saved):
        rewrite_header(saved, lambda header: None)
        assert checkpoint.load_model(saved).sites[0].channels == 16

    @pytest.mark.parametrize("name", sorted(HEADER_MUTATIONS))
    def test_malformed_header_is_format_error(self, saved, name):
        rewrite_header(saved, HEADER_MUTATIONS[name])
        with pytest.raises(FormatError):
            checkpoint.load_model(saved)

    @pytest.mark.parametrize("name", ["no_sites", "nodes_int", "hyper_missing_kernel", "node_refs_forward"])
    def test_cli_exits_3_without_traceback(self, saved, name, capsys):
        rewrite_header(saved, HEADER_MUTATIONS[name])
        assert main(["eval", "--checkpoint", str(saved)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_header_not_an_object(self, saved):
        raw = saved.read_bytes()
        (length,) = struct.unpack("<I", raw[8:12])
        new = b"[1, 2]"
        saved.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length :])
        with pytest.raises(FormatError, match="JSON object"):
            checkpoint.load_model(saved)


class TestLoadConsistency:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, build_reference_models(seed=7)["cnn_small"])
        return path

    def test_site_channel_count_must_match_node(self, saved):
        rewrite_header(saved, setter("sites", 0, "channels", value=99))
        with pytest.raises(FormatError, match="99 channels"):
            checkpoint.load_model(saved)

    def test_site_node_index_in_range(self, saved):
        rewrite_header(saved, setter("sites", 0, "node_index", value=99))
        with pytest.raises(FormatError, match="node index 99"):
            checkpoint.load_model(saved)

    def test_site_on_channelless_node(self, saved):
        rewrite_header(saved, setter("sites", 0, "node_index", value=2))
        with pytest.raises(FormatError, match="channels"):
            checkpoint.load_model(saved)

    def test_mask_length_must_match_node(self, saved):
        rewrite_header(saved, setter("masks", value={"0": [1, 0, 1]}))
        with pytest.raises(FormatError, match="mask on node 0"):
            checkpoint.load_model(saved)

    def test_mask_of_right_length_loads(self, saved):
        rewrite_header(saved, setter("masks", value={"1": [1] * 15 + [0]}))
        assert checkpoint.load_model(saved).masks[1][15] == 0.0

    @pytest.mark.parametrize("name,index", [("cnn_residual", 0), ("cnn_small", 13)])
    def test_mask_outside_gate_nodes(self, tmp_path, capsys, name, index):
        # cnn_residual's stem conv and cnn_small's classifier gate no site
        model = build_reference_models(seed=7)[name]
        keep = np.ones(model.nodes[index].out_channels(), np.float32)
        keep[1] = 0.0
        model.masks[index] = keep
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        with pytest.raises(FormatError, match=f"mask on node {index}: .* gates no site"):
            checkpoint.load_model(path)
        assert main(["eval", "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("value", [0.5, 2.0])
    def test_mask_outside_0_and_1_is_not_saved(self, tmp_path, value):
        # int(0.5) would store 0: the reloaded model would prune a channel the saved one kept
        model = build_reference_models(seed=7)["cnn_small"]
        model.masks[4] = np.ones(model.nodes[4].out_channels(), np.float32)
        model.masks[4][3] = value
        path = tmp_path / "m.npkt"
        with pytest.raises(InputError, match="mask on node 4 holds values other than 0 and 1"):
            checkpoint.save_model(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("node,name,value", [(0, "kernel", 700), (0, "kernel", 2**40),
                                                 (4, "in_channels", 1000), (13, "in_features", 10**4)])
    def test_oversized_node_is_rejected_before_it_is_built(self, saved, node, name, value):
        rewrite_header(saved, setter("nodes", node, "hyper", name, value=value))
        with pytest.raises(FormatError, match="larger than the .* floats the file holds"):
            checkpoint.load_model(saved)
