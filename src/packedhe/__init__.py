"""Packed-slot homomorphic evaluation toolkit (exact simulated backend)."""

from .engine import (
    Accumulator,
    CapacityError,
    Ciphertext,
    EngineError,
    EngineParams,
    LayoutError,
    OpMeter,
    PlainMask,
    SlotEngine,
)
from .encoding import (
    MatrixShape,
    PackedMatrix,
    encode_revolver,
    encode_row_major,
    column0_filter,
    sum_col_vec,
)
from .matmul import (
    FcFold,
    MatmulPlan,
    build_result_filter,
    encode_interleaved,
    matmul,
    matmul_chunked,
    row_shifter,
)
from .conv import (
    ImageShape,
    Kernel,
    KernelSpan,
    build_offset_filter,
    conv,
    kernel_spanner,
    sum_for_conv,
)
from .virtual import (
    VirtualLayout,
    batched_conv,
    batched_conv_layer,
    reform,
    reform_maps,
    tile_kernel_span,
    vrot,
)
from .multicipher import (
    ColumnEncodedImage,
    ColumnEncodedMatrix,
    conv_columns,
    encode_image_columns,
    encode_left,
    encode_right,
    matmul_outer,
    reassemble_columns,
)
from .pipeline import (
    EncodedModel,
    ModelWeights,
    PIPELINE_DEPTH,
    argmax_decide,
    batch_layout,
    encode_model,
    flatten_maps,
    forward_encoded,
    pack_batch,
    poly_activation,
)
from .oracle import oracle_conv, oracle_forward, oracle_matmul, oracle_poly

__version__ = "0.1.0"
