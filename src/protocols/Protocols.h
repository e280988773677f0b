//===- protocols/Protocols.h - Benchmark protocol models --------*- C++ -*-===//
//
// Part of sharpie. Executable models of every benchmark in the paper's
// evaluation (Sec. 7, Figures 6, 7 and 9), each bundled with the shape
// template the paper marks for it, a suggested explicit-checking instance,
// and the paper-reported data used by the bench harness.
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

namespace sharpie {
namespace protocols {

/// A benchmark: the system, its template, and paper-reported reference
/// data. The same struct the frontend produces (front/Front.h).
using ProtocolBundle = front::FrontBundle;

using BundleFactory =
    std::function<ProtocolBundle(logic::TermManager &)>;

// -- Paper Sec. 3 -------------------------------------------------------------

/// The increment program of the informal overview: every thread bumps a
/// shared counter once; a thread past its increment witnesses a > 0.
ProtocolBundle makeIncrement(logic::TermManager &M);

// -- Figure 6, upper table ------------------------------------------------------

ProtocolBundle makeIntro(logic::TermManager &M);         // [Farzan et al.]
ProtocolBundle makeBluetooth(logic::TermManager &M);     // [Farzan et al.]
ProtocolBundle makeTreeTraverse(logic::TermManager &M);  // [Farzan et al.]
ProtocolBundle makeCache(logic::TermManager &M);         // [Yongjian]
ProtocolBundle makeGarbageCollection(logic::TermManager &M); // Fig. 8

// -- Figure 6, lower table ------------------------------------------------------

ProtocolBundle makeTicketLock(logic::TermManager &M);    // Fig. 1
ProtocolBundle makeFilterLock(logic::TermManager &M);    // Fig. 2
ProtocolBundle makeOneThird(logic::TermManager &M);      // Fig. 3

// -- Figure 7 (comparison with [Ganjei et al. 2015]) -------------------------------

ProtocolBundle makeMax(logic::TermManager &M, bool Barrier);
ProtocolBundle makeReaderWriter(logic::TermManager &M, bool Correct);
ProtocolBundle makeParentChild(logic::TermManager &M, bool Barrier);
ProtocolBundle makeSimpBar(logic::TermManager &M, bool Barrier);
ProtocolBundle makeDynBarrier(logic::TermManager &M, bool Barrier);
ProtocolBundle makeAsMany(logic::TermManager &M, bool Correct);

// -- Figure 9, upper table (comparison with [Abdulla et al. 2007]) ------------------

ProtocolBundle makeSimplifiedBakery(logic::TermManager &M);
ProtocolBundle makeLamportBakery(logic::TermManager &M);
ProtocolBundle makeBogusBakery(logic::TermManager &M);
ProtocolBundle makeTicketMutex(logic::TermManager &M);

// -- Figure 9, lower table (comparison with [Sanchez et al. 2012]) -------------------

ProtocolBundle makeBarrier(logic::TermManager &M);
ProtocolBundle makeCentralBarrier(logic::TermManager &M);
ProtocolBundle makeWorkStealing(logic::TermManager &M);
ProtocolBundle makeDiningPhilosophers(logic::TermManager &M);
ProtocolBundle makeRobot(logic::TermManager &M, int Rows, int Cols);

} // namespace protocols
} // namespace sharpie

#endif // SHARPIE_PROTOCOLS_PROTOCOLS_H
