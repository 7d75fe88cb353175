"""One stripe for the tests that repair a single chunk by hand."""

from repro.ec import RSCode, Stripe


def one_stripe(helpers=(1, 2, 3, 4, 5), failed=6, k=4, stripe_id=0):
    """``(stripe, failed)``: a stripe whose chunk 0 was on ``failed`` and
    whose other chunks sit on ``helpers``, in that order (the order the
    master hands the planner its candidates), coded with
    ``RSCode(len(helpers) + 1, k)``."""
    code = RSCode(len(helpers) + 1, k)
    return Stripe(stripe_id, code, [failed, *helpers]), failed
