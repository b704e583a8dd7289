"""Checkpoint format tests: bit-exact round trips and corruption handling."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from prunelab import checkpoint, pruning
from prunelab.cli import main
from prunelab.errors import FormatError, InputError
from prunelab.nn import INPUT, AvgPool, Flatten, Linear, Model, make_node

from helpers import all_keep, build_reference_models, conv_bn_probe_model, rewrite_header

# the message of a header other than save_model writes for the model it describes, and where it first differs
NOT_SAVED = "checkpoint header differs from the one save_model writes for its model, first at {}"


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
        assert checkpoint.save_model(p1, model) == p1.stat().st_size
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

    def test_masks_survive(self, model, tmp_path):
        site = model.sites[0]
        keep = np.ones(site.channels, np.float32)
        keep[0] = 0.0
        model.masks[site.node_index] = keep
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        assert read_header(path)["masks"] == {str(site.node_index): keep.astype(int).tolist()}  # once, not per gate
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

    def test_short_file_builds_no_node_past_its_blobs(self, tmp_path, monkeypatch):
        # the header is save_model's, so only the blobs can stop it: 20 nodes of 40 KB would be built for a 40 KB file
        model = Model([Linear(f"fc{i}", [i - 1], 100, 100) for i in range(20)], (100,), 100)
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        path.write_bytes(path.read_bytes()[: -19 * 4 * (100 * 100 + 100)])  # the blobs of fc0 only
        built = []
        monkeypatch.setattr(checkpoint, "make_node", lambda *args: built.append(args) or make_node(*args))
        with pytest.raises(FormatError, match="truncated checkpoint: node 1"):
            checkpoint.load_model(path)
        assert len(built) == 2

    @pytest.mark.parametrize("index,name", [(8, "weight"), (9, "running_var"), (13, "weight"), (13, "bias")])
    def test_a_file_cut_inside_a_nodes_blobs_names_the_node_and_parameter(self, tmp_path, monkeypatch, index, name):
        # cnn_small's conv3 (node 8), bn3 and fc_out, each cut one float short: the header's size bound passes,
        # since no node is larger than the floats left, so only reading the blob can stop the load
        model = build_reference_models(seed=7)["cnn_small"]
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        raw = path.read_bytes()
        blobs = [((i, blob), a.size) for i, node in enumerate(model.nodes)
                 for blob, a in (*node.params.items(), *node.state.items())]  # file order
        at = [key for key, _ in blobs].index((index, name))
        end = len(raw) - 4 * sum(size for _, size in blobs[at + 1 :])
        path.write_bytes(raw[: end - 4])
        built = []
        monkeypatch.setattr(checkpoint, "make_node", lambda *args: built.append(args) or make_node(*args))
        with pytest.raises(FormatError, match=f"^truncated checkpoint: node {index} parameter {name!r} needs bytes "
                                              f"\\[{end - 4 * blobs[at][1]}, {end}\\), file has {end - 4}$"):
            checkpoint.load_model(path)
        assert len(built) == index + 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.npkt"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="truncated"):
            checkpoint.load_model(path)


def read_header(path):
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12 : 12 + length])


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


def duplicate(key):
    """The header text with key written twice, its value both times: json.loads keeps one of them."""
    def mutate(header):
        return f"{{{json.dumps(key)}: {json.dumps(header[key])}, {json.dumps(header, sort_keys=True)[1:]}"
    return mutate


# cnn_small: node 0 is conv1 (16 channels, no bias), 1 is bn1, 2 is relu1
HEADER_MUTATIONS = {
    "no_nodes": deleter("nodes"),
    "no_sites": deleter("sites"),
    "no_masks": deleter("masks"),
    "no_input_shape": deleter("input_shape"),
    "no_num_classes": deleter("num_classes"),
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
    "site_duplicate_node": setter("sites", 1, value={"site_id": "conv1b", "node_index": 0, "channels": 16}),
    "mask_str": setter("masks", "0", value="1111"),
    "mask_bad_value": setter("masks", "0", value=[1] * 15 + ["0"]),
    "mask_bad_key": setter("masks", value={"conv1": [1] * 16}),
    "mask_key_out_of_range": setter("masks", value={"99": [1] * 16}),
    "mask_on_relu": setter("masks", value={"2": [1] * 16}),
    "mask_value_two": setter("masks", "0", value=[1] * 15 + [2]),
    "mask_value_half": setter("masks", "0", value=[1] * 15 + [0.5]),
    # the saved fixture masks site conv1 with channel 3 off, stored once under its node 0
    "mask_bn1_alone": setter("masks", value={"1": [1, 1, 1, 0] + [1] * 12}),
    "mask_copy_on_bn1": setter("masks", "1", value=[1, 1, 1, 0] + [1] * 12),
    "mask_beside_site_on_relu": setter("masks", "2", value=[1] * 16),
    # headers save_model never writes, which the node constructors would still accept
    "extra_key": setter("comment", value="pruned"),
    "site_extra_key": setter("sites", 0, "pruned", value=0),
    "params_entry_extra_key": setter("nodes", 0, "params", 0, "dtype", value="float32"),
    "hyper_missing_padding": deleter("nodes", 0, "hyper", "padding"),
    "hyper_missing_stride": deleter("nodes", 0, "hyper", "stride"),
    "hyper_missing_momentum": deleter("nodes", 1, "hyper", "momentum"),
    "num_classes_twice": duplicate("num_classes"),
    # headers of models that build node by node, but whose shapes the walk finds misfit
    "pool1_kernel_3": setter("nodes", 3, "hyper", "kernel", value=3),
    "input_shape_24": setter("input_shape", value=[1, 24, 24]),
    "input_shape_2**40": setter("input_shape", value=[1, 2**40, 2**40]),
    "num_classes_5": setter("num_classes", value=5),
}
# where some of them first differ from the header save_model writes
DIFFERS_AT = {
    "extra_key": "the keys of the header", "site_extra_key": "the keys of sites[0]",
    "params_entry_extra_key": "the keys of nodes[0].params[0]", "params_missing": "nodes[1].params",
    "params_shape_negative": "nodes[0].params[0].shape[0]", "hyper_missing_stride": "the keys of nodes[0].hyper",
    "mask_bn1_alone": "the keys of masks", "mask_copy_on_bn1": "the keys of masks",
    "num_classes_twice": "byte 2 of its JSON text",
}


class TestHeaderValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        model = build_reference_models(seed=7)["cnn_small"]
        keep = np.ones(16, np.float32)
        keep[3] = 0.0
        model.masks[0] = keep  # site conv1, stored once under its node, though bn1 gates it too
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        return path

    def test_unmutated_header_loads(self, saved):
        rewrite_header(saved, lambda header: None)
        assert read_header(saved)["masks"] == {"0": [1, 1, 1, 0] + [1] * 12}
        loaded = checkpoint.load_model(saved)
        assert loaded.sites[0].channels == 16
        assert list(loaded.masks) == [0] and loaded.masks[0].tolist() == [1, 1, 1, 0] + [1] * 12

    @pytest.mark.parametrize("name", sorted(HEADER_MUTATIONS))
    def test_malformed_header_is_format_error(self, saved, name):
        rewrite_header(saved, HEADER_MUTATIONS[name])
        with pytest.raises(FormatError):
            checkpoint.load_model(saved)

    @pytest.mark.parametrize("name", sorted(DIFFERS_AT))
    def test_header_save_model_would_not_write_names_where_it_differs(self, saved, name):
        rewrite_header(saved, HEADER_MUTATIONS[name])
        with pytest.raises(FormatError, match=re.escape(NOT_SAVED.format(DIFFERS_AT[name]))):
            checkpoint.load_model(saved)

    @pytest.mark.parametrize("name", ["no_sites", "nodes_int", "hyper_missing_kernel", "node_refs_forward",
                                      "mask_bn1_alone", "mask_copy_on_bn1", "mask_on_relu",
                                      "site_duplicate_node", "hyper_missing_padding", "num_classes_twice",
                                      "pool1_kernel_3", "input_shape_24", "input_shape_2**40", "num_classes_5"])
    def test_cli_exits_3_without_traceback(self, saved, name, capsys):
        rewrite_header(saved, HEADER_MUTATIONS[name])
        assert main(["eval", "--checkpoint", str(saved)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,node,misfit", [
        ("pool1_kernel_3", "3 (pool1)", "pool kernel 3 expects (C, H, W) input whose H and W it divides, got (16, 16, 16)"),
        ("input_shape_24", "13 (fc_out)", "linear expects (128,) input, got (288,)"),
        ("input_shape_2**40", "13 (fc_out)", f"linear expects (128,) input, got ({32 * 2**37 * 2**37},)"),
        ("num_classes_5", "13 (fc_out)", "outputs (4,), not the logits' (5,)"),
    ])
    def test_shapes_the_walk_refuses_are_named(self, saved, name, node, misfit):
        rewrite_header(saved, HEADER_MUTATIONS[name])
        with pytest.raises(FormatError, match=f"^{re.escape(f'inconsistent checkpoint: node {node}: {misfit}')}$"):
            checkpoint.load_model(saved)

    def test_a_huge_input_shape_is_refused_without_allocating_it(self, saved):
        # the walk is arithmetic: it refuses a 2**40 x 2**40 input within the memory of the file's 48 kB of nodes
        rewrite_header(saved, HEADER_MUTATIONS["input_shape_2**40"])
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="inconsistent checkpoint: node 13"):
                checkpoint.load_model(saved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    def test_two_sites_on_one_node(self, saved):
        rewrite_header(saved, HEADER_MUTATIONS["site_duplicate_node"])
        with pytest.raises(FormatError, match="inconsistent checkpoint: two sites on one node"):
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
        keep = [1] * 15 + [0]
        rewrite_header(saved, setter("masks", value={"0": keep}))
        assert checkpoint.load_model(saved).masks[0][15] == 0.0

    @pytest.mark.parametrize("name", ["cnn_small", "cnn_residual"])
    def test_a_format_1_file_is_refused_with_the_version_error(self, tmp_path, capsys, name):
        # format 1 stored each site's mask under every gate node, beside a non_prunable map of node to reason
        model = build_reference_models(seed=7)[name]
        path = tmp_path / "format1.npkt"
        checkpoint.save_model(path, model)
        masks = {str(g): [int(c % 3 != 1) for c in range(s.channels)] for s in model.sites for g in model.gates(s)}
        non_prunable = {str(len(model.nodes) - 1): "classifier output"}
        rewrite_header(path, lambda header: header.update(masks=masks, non_prunable=non_prunable))
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(FormatError, match=r"^unsupported checkpoint version 1 \(expected 2\)$"):
            checkpoint.load_model(path)
        assert main(["eval", "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: unsupported checkpoint version 1 (expected 2)\n"

    @pytest.mark.parametrize("name,masks", [
        ("cnn_small", {"0": [1] * 15 + [0]}),
        ("cnn_small", {"0": [1] * 15 + [0], "4": [0] + [1] * 23}),
        ("cnn_residual", {"11": [0, 1] * 12}),
    ], ids=["conv1_alone", "conv1_and_conv2", "residual_conv4"])
    def test_header_masks_one_per_site_node_load_and_resave_byte_identical(self, tmp_path, name, masks):
        path, again = tmp_path / "m.npkt", tmp_path / "again.npkt"
        checkpoint.save_model(path, build_reference_models(seed=7)[name])
        rewrite_header(path, setter("masks", value=masks))
        loaded = checkpoint.load_model(path)
        assert {str(i): m.astype(int).tolist() for i, m in loaded.masks.items()} == masks
        checkpoint.save_model(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name,masks", [
        ("cnn_small", {"1": [1] * 15 + [0]}),
        ("cnn_small", {"0": [1] * 15 + [0], "1": [0] + [1] * 15}),
        ("cnn_small", {"2": [1] * 16}),
        ("cnn_small", {"13": [1, 0, 1, 1]}),
        ("cnn_residual", {"0": [1] * 15 + [0]}),
    ], ids=["bn1_alone", "unequal_copies", "relu", "classifier", "residual_stem"])
    def test_header_masks_must_be_keyed_by_site_nodes(self, tmp_path, capsys, name, masks):
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, build_reference_models(seed=7)[name])
        rewrite_header(path, setter("masks", value=masks))
        with pytest.raises(FormatError, match=re.escape(NOT_SAVED.format("the keys of masks"))):
            checkpoint.load_model(path)
        assert main(["eval", "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_the_probe_models_two_site_masks_round_trip(self, tmp_path):
        # conv site and the bn site that reads it: per-gate storage would have saved their product under the bn
        model = conv_bn_probe_model(channels=5, seed=3)
        model.masks = {0: np.array([1.0, 1.0, 1.0, 0.0, 1.0]), 1: np.array([0.0, 1.0, 1.0, 1.0, 1.0])}
        path = tmp_path / "m.npkt"
        checkpoint.save_model(path, model)
        assert read_header(path)["masks"] == {"0": [1, 1, 1, 0, 1], "1": [0, 1, 1, 1, 1]}
        loaded = checkpoint.load_model(path)
        assert loaded.masks.keys() == model.masks.keys()
        for i, m in model.masks.items():
            assert np.array_equal(loaded.masks[i], m)
        assert loaded.gate_mask(1).tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]

    @pytest.mark.parametrize("name,index,length", [("cnn_residual", 0, 16), ("cnn_small", 13, 4), ("cnn_small", 1, 16),
                                                   ("cnn_small", 2, 16)],
                             ids=["residual_stem", "classifier", "batch_norm_gate", "relu"])
    def test_mask_off_site_nodes_is_refused_in_memory(self, tmp_path, name, index, length):
        # the residual stem conv and the classifier gate no site; bn1 gates site conv1 but is not its node
        model = build_reference_models(seed=7)[name]
        model.masks[index] = np.ones(length, np.float32)
        mask = all_keep(model)
        match = f"mask on node {index}: .* not a site node"
        for call in (model.check, lambda: model.forward(np.zeros((2,) + model.input_shape), "eval"),
                     lambda: checkpoint.save_model(tmp_path / "stray.npkt", model),
                     lambda: pruning.apply_mask(model, mask), lambda: pruning.compact(model, mask)):
            with pytest.raises(InputError, match=match):
                call()
        assert not (tmp_path / "stray.npkt").exists()

    @pytest.mark.parametrize("value", [0.5, 2.0, float("nan")])
    def test_mask_outside_0_and_1_is_not_saved(self, tmp_path, value):
        # int(0.5) would store 0: the reloaded model would prune a channel the saved one kept
        model = build_reference_models(seed=7)["cnn_small"]
        model.masks[4] = np.ones(model.nodes[4].channels, np.float32)
        model.masks[4][3] = value
        path = tmp_path / "m.npkt"
        with pytest.raises(InputError, match="mask on node 4 holds values other than 0 and 1"):
            checkpoint.save_model(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("index,match", [(0, "mask on node 0 is not a float32 array"),
                                             (2, r"mask on node 2: node 2 \(relu1\) is a relu node, not a site node")],
                             ids=["site", "relu"])
    @pytest.mark.parametrize("value", ["1111", None], ids=["str", "none"])
    def test_a_mask_that_is_not_an_array_is_not_saved(self, tmp_path, index, match, value):
        # the header converts a mask only once Model.check has passed it
        model = build_reference_models(seed=7)["cnn_small"]
        model.masks[index] = value
        path = tmp_path / "m.npkt"
        with pytest.raises(InputError, match=f"^{match}$"):
            checkpoint.save_model(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("index,length,match", [(0, 5, r"mask on node 0: shape \(5,\), node has 16"),
                                                    (99, 16, "mask on node 99: no such node")],
                             ids=["short", "no_node"])
    def test_mask_that_does_not_fit_is_not_saved(self, tmp_path, index, length, match):
        model = build_reference_models(seed=7)["cnn_small"]
        model.masks[index] = np.ones(length, np.float32)
        path = tmp_path / "m.npkt"
        with pytest.raises(InputError, match=match):
            checkpoint.save_model(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("node,name,value", [(0, "kernel", 700), (0, "kernel", 2**40),
                                                 (4, "in_channels", 1000), (13, "in_features", 10**4)])
    def test_oversized_node_is_rejected_before_it_is_built(self, saved, node, name, value):
        rewrite_header(saved, setter("nodes", node, "hyper", name, value=value))
        with pytest.raises(FormatError, match="larger than the .* floats the file holds"):
            checkpoint.load_model(saved)


def conv_5x5():
    model = build_reference_models(seed=0)["cnn_small"]
    model.nodes[0].params["weight"] = np.zeros((16, 1, 5, 5), np.float32)
    model.nodes[0].padding = 2
    return model


def pooled_linear():
    return Model([AvgPool("pool", [INPUT], kernel=4), Flatten("flat", [0]), Linear("fc", [1], 2, 2)], (2, 4, 4), 2)


class TestSizesAreArrayShapes:
    @pytest.mark.parametrize("build", [conv_5x5, pooled_linear], ids=["conv_5x5_weight", "pool_kernel_4"])
    def test_saved_model_loads_and_resaves_byte_for_byte(self, tmp_path, build):
        # the conv's stored kernel size disagreed with its swapped weight, and the
        # size bound counted a pool's kernel as a weight size: load_model refused both
        model = build()
        a, b = tmp_path / "a.npkt", tmp_path / "b.npkt"
        checkpoint.save_model(a, model)
        loaded = checkpoint.load_model(a)
        checkpoint.save_model(b, loaded)
        assert a.read_bytes() == b.read_bytes()
        assert [n.hyper() for n in loaded.nodes] == [n.hyper() for n in model.nodes]
        x = np.random.default_rng(3).random((2,) + model.input_shape, np.float32)
        assert np.array_equal(model.forward(x, "eval")[0], loaded.forward(x, "eval")[0])
