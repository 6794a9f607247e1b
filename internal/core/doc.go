// Package core implements the paper's primary contribution: Next, the
// user-interaction-aware reinforcement-learning DVFS agent, together
// with the PPDW metric it optimizes.
//
// The agent's loop mirrors Section IV of the paper:
//
//   - every 25 ms it samples the displayed frame rate into a 4 s frame
//     window (160 samples) and takes the window's mathematical mode as
//     the target FPS — the frame rate the user's current interaction
//     actually needs;
//   - every 100 ms it observes the platform state (per-cluster maxfreq
//     positions, current FPS, target FPS, power, big-cluster and device
//     temperatures), folds it into a quantized tabular state, performs a
//     TD update rewarded by PPDW (Eq. 1), and picks one of the 3·m
//     actions (frequency up / down / do nothing per cluster). The update
//     rule and exploration strategy come from the internal/learner
//     registries — Watkins Q-learning (Eq. 3) with decaying ε-greedy by
//     default, bit-identical to the paper's hard-coded rule — so the
//     same agent runs Double Q, SARSA, Expected SARSA or n-step returns
//     (and softmax/UCB1 exploration) by configuration;
//   - actions move the chosen cluster's maxfreq cap one OPP, leaving the
//     stock governor free to choose any frequency below the cap.
//
// As in the paper, the agent has no thermal trip: temperature reaches
// it only through the PPDW reward. A thermal safety limit is a separate
// controller (governor.ThermalCap, the "thermalcap" scheme).
//
// Q-tables are kept per application and can be persisted and reloaded
// (the paper trains each new app once, ~3 min 27 s, then reuses the
// table), merged across devices (federated learning, Section IV-C), and
// trained at cloud speed via internal/cloud.
package core
