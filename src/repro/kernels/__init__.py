"""The paper's two studied kernels plus supporting rendering math.

* :class:`~repro.kernels.bilateral.BilateralFilter3D` — structured
  stencil access (Section III-A);
* :class:`~repro.kernels.volrend.RaycastRenderer` — semi-structured ray
  sampling (Section III-B);
* cameras, reconstruction filters, transfer functions, plain Gaussian
  convolution, and gradient shading as building blocks/extensions.
"""

from .acceleration import MinMaxBricks
from .bilateral import (
    STENCIL_LABELS,
    BilateralFilter3D,
    BilateralSpec,
    PencilReads,
)
from .bilateral2d import Bilateral2DSpec, BilateralFilter2D
from .camera import Camera, generate_rays, orbit_camera
from .convolution import GaussianConvolution3D, GaussianSpec
from .gradient import gradient_at, gradient_dense, lambert_shade
from .jacobi import Jacobi3D, JacobiSpec
from .sampling import sample_nearest, sample_trilinear
from .transfer import (
    TransferFunction,
    grayscale_ramp,
    isosurface_like,
    sparse_ramp,
    warm_ramp,
)
from .volrend import (
    RaycastRenderer,
    RayReads,
    RenderSpec,
    TileResult,
    ray_box_intersect,
)

__all__ = [
    "STENCIL_LABELS",
    "Bilateral2DSpec",
    "BilateralFilter2D",
    "BilateralFilter3D",
    "BilateralSpec",
    "Camera",
    "GaussianConvolution3D",
    "GaussianSpec",
    "Jacobi3D",
    "JacobiSpec",
    "MinMaxBricks",
    "PencilReads",
    "RayReads",
    "RaycastRenderer",
    "RenderSpec",
    "TileResult",
    "TransferFunction",
    "generate_rays",
    "gradient_at",
    "gradient_dense",
    "grayscale_ramp",
    "isosurface_like",
    "lambert_shade",
    "orbit_camera",
    "ray_box_intersect",
    "sample_nearest",
    "sample_trilinear",
    "sparse_ramp",
    "warm_ramp",
]
