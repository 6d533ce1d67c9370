"""currentkit: exterior calculus, simplicial currents, flat norms, and the
transport theorem for convecting chains.

The public API re-exports the main types and operations from the submodules;
anything not listed here is internal.
"""

from .exterior import (CoVector, MultiVector, basis_rank, comass,
                       frame_to_multivector, mass, multi_indices, pair, wedge)
from .polynomial import Polynomial
from .forms import (AffineMap, Box, Cochain, FormField, VectorField,
                    contract, exterior_derivative, form_lipschitz,
                    lie_derivative, lie_derivative_components, pullback,
                    seminorm_comass, seminorm_flat, seminorm_sharp)
from .quadrature import (grundmann_moller, integrate_interval, simplex_rule,
                         subdivide_barycentric)
from .chains import (Boundary, Chain, Current, Leaf, Sum, VWedge, boundary,
                     evaluate, mass_chain, triangle_chain,
                     unit_interval_chain, unit_square_chain)
from .complexes import SimplicialComplex, freudenthal_complex
from .flatnorm import (dual_flat_lower_bound, flat_norm_lp, lower_bounds,
                       sharp_lower_bound)
from .lipschitz import LipMap, lipschitz_constant, pushforward_chain
from .motion import (Motion, classical_reynolds, continuity_modulus,
                     homotopy_residual, homotopy_residuals, make_motion,
                     reynolds_operator, transport_derivative,
                     transport_derivative_fd, transport_derivative_fd_ladder,
                     velocity_field)

__version__ = "0.1.0"
