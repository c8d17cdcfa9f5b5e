"""Tiled memristive crossbar inference simulator with dense/sparse
weight-mapping schemes and grid-search design-space exploration."""

__version__ = "0.1.0"

from .qnet import (
    Dataset,
    Layer,
    LayerSpec,
    QuantizedNetwork,
    WeightTensor,
    conv1d,
    conv2d,
    generate_synthetic_dataset,
    ideal_forward,
    linear,
    load_dataset,
    load_network,
    quantize_weights,
    save_dataset,
    save_network,
    sparsity,
    train_fixture,
)
from .mapping import (
    SCHEMES,
    CostReport,
    MappingPlan,
    cost,
    cost_network,
    devices_dense_eq2,
    devices_sparse_eq1,
    layer_plan,
    map_linear_dense,
    map_linear_sparse,
    network_plans,
    plans_cost,
    steps_dense_eq3,
)
from .xbar import (
    DeviceModel,
    HardwareConfig,
    IOConfig,
    TileArray,
    encode_inputs,
    evaluate_accuracy,
    program,
    program_network,
    readout,
    sample_devices,
    simulate_forward,
    tile_vmm,
)
from .dse import (
    ConfigResult,
    SearchSpace,
    contour_grid,
    grid_search,
    min_max_normalize,
    rank,
    weighted_score,
)
