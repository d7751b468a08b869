"""Expand-and-sort reference beam fill.

This is the plain formulation: every (beam entry, candidate) expansion calls
``lm.log_prob`` and builds its fill tuples, and the whole list is sorted on
``(-score, fill_ids)``; the stable sort leaves ties to the earlier expansion.
``pairscore.synth.fill_masks`` reads cached log-prob rows with their
candidate order, ranks only each entry's first ``beam_width`` candidates
plus those past the cut whose total rounds to the cut's, and must agree with
this module exactly."""

from __future__ import annotations

from pairscore.text import TokenSeq


def reference_fill_masks(z: TokenSeq, plan, lm, beam_width: int = 8) -> TokenSeq:
    if not plan.positions:
        return z
    candidates = lm.candidates()
    masked = set(plan.positions)
    beam = [(0.0, (), ())]
    for pos in plan.positions:
        expansions = []
        for score, fills, fill_ids in beam:
            if pos == 0:
                prev = None
            elif pos - 1 in masked:
                prev = fills[plan.positions.index(pos - 1)]
            else:
                prev = z.tokens[pos - 1]
            for tok, tid in candidates:
                expansions.append(
                    (score + lm.log_prob(tok, prev), fills + (tok,), fill_ids + (tid,))
                )
        expansions.sort(key=lambda e: (-e[0], e[2]))
        beam = expansions[:beam_width]

    _, best_fills, best_ids = beam[0]
    tokens = list(z.tokens)
    ids = list(z.ids)
    for pos, tok, tid in zip(plan.positions, best_fills, best_ids):
        tokens[pos] = tok
        ids[pos] = tid
    return TokenSeq(tuple(tokens), tuple(ids))
