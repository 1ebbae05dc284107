"""Exception types shared across the package."""


class ResourceLimitError(ValueError):
    """Requested size exceeds a configured desk-scale cap."""


class PreconditionError(ValueError):
    """A documented hypothesis of the operation does not hold for the input."""


class InvariantFailure(RuntimeError):
    """A proven identity failed to hold at runtime; indicates a bug."""


class CertificateFailure(Exception):
    """A residue certificate could not be established.

    Carries the smallest Fermat prime where the non-residue condition
    fails and the offending Jacobi symbol value (0 or +1).
    """

    def __init__(self, nu: int, prime: int, jacobi_value: int):
        self.nu = nu
        self.prime = prime
        self.jacobi_value = jacobi_value
        super().__init__(
            f"no non-residue certificate for nu = {nu} modulo the Fermat "
            f"prime {prime} (Jacobi symbol {jacobi_value})"
        )
