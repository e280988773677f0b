//===- protocols/Protocols.h - Benchmark protocol models --------*- C++ -*-===//
//
// Part of sharpie. The benchmark protocols of the paper's evaluation
// (Sec. 7, Figures 6, 7 and 9) that are still hand-built in C++, each
// bundled with the shape template the paper marks for it and a suggested
// explicit-checking instance. Every other protocol has one source, its
// examples/protocols/*.sharpie file. What stays here and why:
//   - the seven inputs the benchmark harness builds (sharpiebench/):
//     increment, simp-bar, parent-child, Lamport's Bakery, robot,
//     one-third (also for its synchronous CustomStepper), Ticket Mutex;
//   - Bogus Bakery and dining philosophers, whose start states (a
//     distinct prio per thread; sticks equal to the instance size) a
//     `start` block cannot express;
//   - barrier and central barrier, whose ports verify the same sets in
//     another order (set-body rank ties follow term creation order).
// The paper's reference columns (times, cardinalities) live with the
// figure benches in bench/.
//
// One TermManager per bundle: protocols reuse plain variable names (pc, n,
// ...), so two bundles must never share a manager.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_PROTOCOLS_PROTOCOLS_H
#define SHARPIE_PROTOCOLS_PROTOCOLS_H

#include "front/Front.h"
#include "synth/Synth.h"

#include <functional>
#include <map>
#include <string>

namespace sharpie {
namespace protocols {

/// A benchmark: the system and its template. The same struct the
/// frontend produces (front/Front.h).
using ProtocolBundle = front::FrontBundle;

using BundleFactory =
    std::function<ProtocolBundle(logic::TermManager &)>;

// -- Paper Sec. 3 -------------------------------------------------------------

/// The increment program of the informal overview: every thread bumps a
/// shared counter once; a thread past its increment witnesses a > 0.
/// (Twin of examples/protocols/increment.sharpie, kept for the harness.)
ProtocolBundle makeIncrement(logic::TermManager &M);

// -- Figure 6, lower table ------------------------------------------------------

ProtocolBundle makeOneThird(logic::TermManager &M);      // Fig. 3

// -- Figure 7 (comparison with [Ganjei et al. 2015]) -------------------------------

ProtocolBundle makeParentChild(logic::TermManager &M, bool Barrier);
ProtocolBundle makeSimpBar(logic::TermManager &M, bool Barrier);

// -- Figure 9, upper table (comparison with [Abdulla et al. 2007]) ------------------

ProtocolBundle makeLamportBakery(logic::TermManager &M);
ProtocolBundle makeBogusBakery(logic::TermManager &M);
ProtocolBundle makeTicketMutex(logic::TermManager &M);

// -- Figure 9, lower table (comparison with [Sanchez et al. 2012]) -------------------

ProtocolBundle makeBarrier(logic::TermManager &M);
ProtocolBundle makeCentralBarrier(logic::TermManager &M);
ProtocolBundle makeDiningPhilosophers(logic::TermManager &M);
ProtocolBundle makeRobot(logic::TermManager &M, int Rows, int Cols);

/// The bundles `sharpie --builtin NAME` selects, by NAME: the protocols
/// above that have no examples/protocols/ file (increment has one).
std::map<std::string, BundleFactory> builtins();

} // namespace protocols
} // namespace sharpie

#endif // SHARPIE_PROTOCOLS_PROTOCOLS_H
