"""Reference fold for the estimators' keys: a full observation log reduced
to (first_reach, first_sent) by a plain scan of every entry, as the
estimators once read the log themselves."""

from gossipsim.engine import PHASE_CIRCUIT


def fold_log(log, graph, exclude):
    """(first_reach, first_sent) of an observation log.

    first_reach is the least (arrival, sender) and first_sent the least
    (arrival - latency, sender), the latency read from the observer's own
    row, over the linkable entries (not circuit phase) whose sender is not in
    exclude; each is None when no entry counts.
    """
    linkable = [(arrival, sender, observer) for arrival, sender, observer, phase in log
                if phase != PHASE_CIRCUIT and sender not in exclude]
    if not linkable:
        return None, None
    reach = min((arrival, sender) for arrival, sender, _ in linkable)
    sent = min((arrival - graph.latency(observer, sender), sender)
               for arrival, sender, observer in linkable)
    return reach, sent
