"""The list-based even sample: the reference that suite.sample_standard_exponents
is gated against, and the sample the larger closed-form-vs-oracle tests use."""


def sample_evenly(items: list, limit: int) -> list:
    """Deterministic sample: every k-th item so that at most ~limit survive,
    always keeping the first and last.  limit must be at least 1."""
    if limit < 1:
        raise ValueError(f"sample limit must be at least 1, got {limit}")
    if len(items) <= limit:
        return list(items)
    stride = max(1, len(items) // limit)
    picked = items[::stride]
    if items[-1] != picked[-1]:
        picked.append(items[-1])
    return picked
