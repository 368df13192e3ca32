//===- exec/DataEnv.cpp ---------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/DataEnv.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace daisy;

DataEnv::DataEnv(const Program &Prog) {
  Buffers.reserve(Prog.arrays().size());
  SlotNames.reserve(Prog.arrays().size());
  for (const ArrayDecl &Decl : Prog.arrays()) {
    size_t Slot = Buffers.size();
    Buffers.emplace_back(
        static_cast<size_t>(std::max<int64_t>(Decl.elementCount(), 1)), 0.0);
    SlotNames.push_back(Decl.Name);
    Slots.emplace(Decl.Name, Slot);
    if (!Decl.Transient)
      NonTransient.push_back(Slot);
  }
}

std::vector<double> &DataEnv::buffer(const std::string &Array) {
  return Buffers[slotOf(Array)];
}

const std::vector<double> &DataEnv::buffer(const std::string &Array) const {
  return Buffers[slotOf(Array)];
}

std::vector<double> &DataEnv::bufferAt(size_t Slot) {
  assert(Slot < Buffers.size() && "slot out of range");
  return Buffers[Slot];
}

const std::vector<double> &DataEnv::bufferAt(size_t Slot) const {
  assert(Slot < Buffers.size() && "slot out of range");
  return Buffers[Slot];
}

size_t DataEnv::slotOf(const std::string &Array) const {
  auto It = Slots.find(Array);
  assert(It != Slots.end() && "unknown array");
  return It->second;
}

bool DataEnv::contains(const std::string &Array) const {
  return Slots.count(Array) != 0;
}

size_t DataEnv::memoryBytes() const {
  size_t Bytes = sizeof(DataEnv);
  for (const std::vector<double> &Buffer : Buffers)
    Bytes += Buffer.capacity() * sizeof(double) + sizeof(Buffer);
  for (const std::string &Name : SlotNames)
    Bytes += Name.capacity() + sizeof(Name);
  // Slots map nodes and NonTransient are noise next to the buffers; a
  // nominal per-entry charge keeps empty programs non-zero.
  Bytes += Slots.size() * (sizeof(std::pair<std::string, size_t>) + 32) +
           NonTransient.capacity() * sizeof(size_t);
  return Bytes;
}

void DataEnv::initDeterministic(uint64_t Seed) {
  for (size_t Slot : NonTransient) {
    std::vector<double> &Buffer = Buffers[Slot];
    // Mix the array name into the pattern so different operands differ.
    uint64_t NameHash = fnv1a(SlotNames[Slot]);
    double Scale = 1.0 + static_cast<double>((NameHash ^ Seed) % 7);
    for (size_t I = 0; I < Buffer.size(); ++I)
      Buffer[I] =
          std::fmod(Scale * static_cast<double>(I % 251) + 1.0, 13.0) / 13.0;
  }
}

double DataEnv::maxAbsDifference(const DataEnv &A, const DataEnv &B,
                                 const Program &Prog) {
  double MaxDiff = 0.0;
  for (const ArrayDecl &Decl : Prog.arrays()) {
    if (Decl.Transient)
      continue;
    if (!A.contains(Decl.Name) || !B.contains(Decl.Name))
      continue;
    const auto &BufA = A.buffer(Decl.Name);
    const auto &BufB = B.buffer(Decl.Name);
    assert(BufA.size() == BufB.size() && "shape mismatch");
    for (size_t I = 0; I < BufA.size(); ++I)
      MaxDiff = std::max(MaxDiff, std::fabs(BufA[I] - BufB[I]));
  }
  return MaxDiff;
}
