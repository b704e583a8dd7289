"""A model's values pass their rules where they are taken.

Nodes, sites and Model check their own arguments, so every model that builds
(and whose conv kernels are square) saves to a checkpoint load_model takes
back: the cases below each wrote a file load_model refused, or failed with
a bare TypeError or built a model of another dtype, before the rules moved
to the constructors.  The public entry points refuse a model that is no
Model, and the drift guard ties checkpoint's size bound to nn's rule table.
"""

import inspect
import re

import numpy as np
import pytest

from prunelab import checkpoint, cli, data, harness, importance, nn, pruning
from prunelab.errors import InputError
from prunelab.nn import INPUT, AvgPool, BatchNorm, Conv2d, Flatten, Linear, Model, Site, make_node

from helpers import build_reference_models


def linear(**kwargs):
    return Model([Linear("fc", [INPUT], 2, 2)], (2,), 2, **kwargs)


def batch_norm(**hyper):
    return Model([Linear("fc", [INPUT], 2, 2), BatchNorm("bn", [0], 2, **hyper)], (2,), 2)


def conv(**hyper):
    return Model([Conv2d("c", [INPUT], 1, 2, 3, **hyper), Flatten("flat", [0]), Linear("fc", [1], 8, 2)], (1, 4, 4), 2)


def non_square_conv():
    model = conv()
    model.nodes[0].params["weight"] = np.zeros((2, 1, 3, 1), np.float32)
    model.nodes[2].params["weight"] = np.zeros((2, 16), np.float32)  # it runs: 2 channels of 2x4
    return model


REFUSED = {
    "eps_0": (lambda: batch_norm(eps=0), "hyperparameter 'eps' must be a float32 > 0"),
    "eps_1e300": (lambda: batch_norm(eps=1e300), "hyperparameter 'eps' must be a float32 > 0"),
    "momentum_1.5": (lambda: batch_norm(momentum=1.5), r"hyperparameter 'momentum' must be a number in \[0, 1\]"),
    "stride_0": (lambda: conv(stride=0), "hyperparameter 'stride' must be an integer >= 1"),
    "padding_-1": (lambda: conv(padding=-1), "hyperparameter 'padding' must be an integer >= 0"),
    "padding_3": (lambda: conv(padding=3), "conv 'c' pads by 3, not less than its kernel 3"),
    "pool_kernel_0": (lambda: Model([AvgPool("pool", [INPUT], kernel=0), Flatten("flat", [0]),
                                     Linear("fc", [1], 2, 2)], (2, 4, 4), 2),
                      "hyperparameter 'kernel' must be an integer >= 1"),
    "site_node_index_False": (lambda: linear(sites=[Site("a", False, 2)]), "site 'a' node_index must be"),
    "site_id_5": (lambda: linear(sites=[Site(5, 0, 2)]), "site_id must be a string"),
    "node_name_5": (lambda: Model([Linear(5, [INPUT], 2, 2)], (2,), 2), "name must be a string"),
    "ref_0.0": (lambda: Model([Linear("a", [INPUT], 2, 2), Linear("b", [0.0], 2, 2)], (2,), 2), "refs must be"),
    "non_square_weight": (non_square_conv, r"hyperparameter 'kernel' must be an integer >= 1, got \(3, 1\)"),
    "site_node_index_0.0": (lambda: linear(sites=[Site("a", 0.0, 2)]), "site 'a' node_index must be"),
    "dtype_a": (lambda: linear(dtype="a"), "dtype must be numpy float32 or float64"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_model_load_model_would_refuse_is_neither_built_nor_saved(tmp_path, case):
    # all but the non-square weight fail where the model is built; that one at save_model
    build, match = REFUSED[case]
    path = tmp_path / "m.npkt"
    with pytest.raises(InputError, match=match):
        checkpoint.save_model(path, build())
    assert not path.exists()


@pytest.mark.parametrize("name,index", [("mlp_small", 1), ("cnn_small", 0)], ids=["fc1", "conv1"])
def test_an_array_of_another_dtype_is_refused_at_forward_and_save(tmp_path, name, index):
    # a float64 linear weight gave float64 logits, and save_model narrowed it to float32 without a word
    model = nn.MODEL_BUILDERS[name](seed=0)
    node = model.nodes[index]
    node.params["weight"] = node.params["weight"].astype(np.float64)
    match = f"^node {index} \\({node.name}\\): weight is not a float32 array$"
    with pytest.raises(InputError, match=match):
        model.forward(np.zeros((2,) + model.input_shape, np.float32), "eval")
    path = tmp_path / "m.npkt"
    with pytest.raises(InputError, match=match):
        checkpoint.save_model(path, model)
    assert not path.exists()


@pytest.mark.parametrize("keep", [np.ones(24), [1.0] * 24, np.ones(24, bool)], ids=["float64", "list", "bool"])
def test_a_mask_of_another_dtype_is_refused_at_forward_apply_mask_and_save(tmp_path, keep):
    # the gates multiply by a mask as it is stored, so one of another dtype would run their products in that dtype
    model = nn.build_cnn_small(seed=0)
    model.masks[4] = keep  # site conv2
    match = "^mask on node 4 is not a float32 array$"
    with pytest.raises(InputError, match=match):
        model.forward(np.zeros((2,) + model.input_shape, np.float32), "eval")
    with pytest.raises(InputError, match=match):
        pruning.apply_mask(model, pruning.PruneMask({s.site_id: np.ones(s.channels, bool) for s in model.sites}))
    path = tmp_path / "m.npkt"
    with pytest.raises(InputError, match=match):
        checkpoint.save_model(path, model)
    assert not path.exists()


@pytest.mark.parametrize("name", list(nn.MODEL_BUILDERS))
def test_a_model_keeps_only_its_constructors_data_its_masks_and_serial(tmp_path, name):
    # nothing derived from the nodes is cached: they stay mutable, and Model.check reads them at each call
    model = nn.MODEL_BUILDERS[name](seed=0)
    checkpoint.save_model(tmp_path / "m.npkt", model)
    keep = pruning.PruneMask({s.site_id: np.arange(s.channels) % 2 == 0 for s in model.sites})
    models = [model, model.astype(np.float64), pruning.apply_mask(model, keep),
              checkpoint.load_model(tmp_path / "m.npkt")]
    if name != "cnn_residual":
        models.append(pruning.compact(model, keep))
    for m in models:
        m.forward(np.zeros((1,) + m.input_shape), "eval")
        assert set(vars(m)) == set(inspect.signature(Model).parameters) | {"masks", "_serial"}


def test_astype_takes_the_dtype_rule():
    with pytest.raises(InputError, match="dtype must be numpy float32 or float64"):
        linear().astype(np.int32)


@pytest.mark.parametrize("compacted", [False, True], ids=["built", "compacted"])
@pytest.mark.parametrize("name", list(nn.MODEL_BUILDERS))
def test_every_node_rebuilds_from_its_hyperparameters(name, compacted):
    model = nn.MODEL_BUILDERS[name](seed=0)
    if compacted:  # every third channel of each site pruned, from channel 1
        model = pruning.compact(model, pruning.PruneMask({s.site_id: np.arange(s.channels) % 3 != 1
                                                          for s in model.sites}))
    for node in model.nodes:
        again = make_node(node.kind, node.name, node.refs, node.hyper())
        assert again.hyper() == node.hyper()
        assert {k: v.shape for k, v in again.params.items()} == {k: v.shape for k, v in node.params.items()}


POOL_MISFIT = "node {}: pool kernel 2 expects (C, H, W) input whose H and W it divides, got {}"


@pytest.mark.parametrize("builder,image_size,pool,shape", [(nn.build_cnn_small, 12, "11 (pool3)", (32, 3, 3)),
                                                          (nn.build_cnn_small, 20, "11 (pool3)", (32, 5, 5)),
                                                          (nn.build_cnn_residual, 10, "14 (pool2)", (24, 5, 5))])
def test_builder_refuses_an_image_size_its_pools_do_not_divide(builder, image_size, pool, shape):
    # the shape walk refuses it, naming the first pool that does not divide its input
    with pytest.raises(InputError, match=f"^{re.escape(POOL_MISFIT.format(pool, shape))}$"):
        builder(image_size=image_size)


def test_cli_train_refuses_the_image_size_before_it_renders_data(tmp_path, monkeypatch, capsys):
    # the shape walk refuses it when the model is built, before the glyphs are rendered
    monkeypatch.setattr(harness, "build_split", lambda config, split: pytest.fail("rendered the data"))
    config = tmp_path / "c.cfg"
    config.write_text("model = cnn_small\nimage_size = 12\n")
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "m.npkt")]) == 3
    assert capsys.readouterr().err == f"error: {POOL_MISFIT.format('11 (pool3)', (32, 3, 3))}\n"


MASK = pruning.PruneMask({"a": [1]})
ENTRY_POINTS = {
    "train": lambda model, dataset, config: harness.train(model, dataset, config),
    "evaluate": lambda model, dataset, config: harness.evaluate(model, dataset),
    "prune_sweep": lambda model, dataset, config: harness.prune_sweep(model, dataset, dataset, config),
    "random_importance_table": lambda model, dataset, config: harness.random_importance_table(model),
    "estimate": lambda model, dataset, config: importance.estimate(model, dataset, 4, "taylorfo",
                                                                   importance.GradientSource(importance.LOSS)),
    "apply_mask": lambda model, dataset, config: pruning.apply_mask(model, MASK),
    "compact": lambda model, dataset, config: pruning.compact(model, MASK),
    "validate_equivalence": lambda model, dataset, config: pruning.validate_equivalence(model, MASK),
}


@pytest.fixture(scope="module")
def dataset():
    return data.generate_shapes(4, 2, image_size=12)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("model", [{}, None, "mlp_small"], ids=["dict", "None", "str"])
def test_entry_point_refuses_a_model_that_is_no_model(dataset, entry, model):
    # each raised a bare AttributeError
    with pytest.raises(InputError, match="^model must be a Model, got "):
        ENTRY_POINTS[entry](model, dataset, harness.ExperimentConfig())


@pytest.mark.parametrize("entry", ["train", "prune_sweep"])
def test_entry_point_refuses_a_config_that_is_no_config(dataset, entry):
    # harness.train(model, dataset, {}) failed on "'dict' object has no attribute 'epochs'"
    with pytest.raises(InputError, match="^config must be an ExperimentConfig, got "):
        ENTRY_POINTS[entry](nn.build_mlp_small(image_size=12), dataset, {"epochs": 1})


# -- drift guard: checkpoint's size bound and nn's rule table name the same hyperparameters


def test_every_size_hyperparameter_is_a_size_in_the_rule_table():
    for kind, names in checkpoint.SIZE_HYPERS.items():
        assert kind in nn.NODE_KINDS
        for name in names:
            assert nn.HYPER_RULES.get(name) is data.SIZE, (kind, name)


def test_every_hyperparameter_a_node_kind_describes_has_a_rule():
    nodes = {node.kind: node for model in build_reference_models().values() for node in model.nodes}
    assert sorted(nodes) == sorted(nn.NODE_KINDS)
    for kind, node in nodes.items():
        assert set(node.hyper()) <= set(nn.HYPER_RULES), kind
