"""Exception hierarchy shared by all modules."""


class ToricBundleError(Exception):
    """Base class for all package errors."""


class VerificationFailed(ToricBundleError):
    """A construction failed one of its own identity checks."""


# -- fan / polytope geometry ------------------------------------------------

class FanError(ToricBundleError):
    """Invalid fan data."""


class NonPrimitiveRay(FanError):
    pass


class DegenerateCone(FanError):
    pass


class BadFaceIntersection(FanError):
    pass


class NotPure(FanError):
    """A maximal cone is not full-dimensional."""


class NotConvex(ToricBundleError):
    """Support vector is not convex on the fan."""


class LowerDimensional(ToricBundleError):
    """Polytope is not full-dimensional in its ambient space."""


# -- polynomials / integration ----------------------------------------------

class DimensionMismatch(ToricBundleError):
    pass


class DegreeMismatch(ToricBundleError):
    pass


class NotHomogeneous(ToricBundleError):
    pass


class AnchorFailure(ToricBundleError):
    """Internal: no scaling of the convexity anchor worked."""


# -- graded algebras ----------------------------------------------------------

class NonHomogeneousRelation(ToricBundleError):
    pass


class EmptyRelation(ToricBundleError):
    """A relation without terms: the zero polynomial, which has no degree."""


class ZeroFunctional(ToricBundleError):
    pass


class NotGenerated(ToricBundleError):
    """Algebra not generated in degree 2 and no extension map supplied."""


class NotDegree2Generated(ToricBundleError):
    pass


class NotTopDegree(ToricBundleError):
    pass


class AmbiguousLabel(ToricBundleError):
    """A base basis label that reads as a fiber generator."""


# -- catalog ------------------------------------------------------------------

class NotDominant(ToricBundleError):
    pass


class NotProjectiveSpace(ToricBundleError):
    """A projective-bundle check on a fan other than that of P^n."""
