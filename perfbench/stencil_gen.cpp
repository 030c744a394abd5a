//===- stencil_gen.cpp - Seeded C stencil source generator ----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The front-half pass of a traced run_native feeds generated C loop nests
// through the frontend. The set of (shape, dimensionality, radius, element
// type) classes is fixed so the pass's cost mix does not depend on the seed;
// the seed draws every coefficient and the extra taps of the Jacobi-like
// shapes.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>

namespace perfbench {
namespace {

/// splitmix64: a small, well-mixed generator that is identical on every
/// platform (std:: distributions are not).
struct Rng {
  std::uint64_t State;
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi).
  double uniform(double Lo, double Hi) {
    return Lo + (Hi - Lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

std::string literal(double Value, bool IsFloat) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f%s", Value, IsFloat ? "f" : "");
  return Buf;
}

std::string index(const char *Var, int Offset) {
  if (Offset == 0)
    return Var;
  return std::string(Var) + (Offset > 0 ? "+" : "") + std::to_string(Offset);
}

enum class Shape { Star, Box, Jacobi };

GeneratedStencil makeOne(Rng &R, Shape Kind, int Dims, int Radius,
                         bool IsFloat) {
  static const char *Vars[] = {"i", "j", "k"};
  // Offsets of every tap of the (2R+1)^Dims box, streaming axis first.
  std::vector<std::vector<int>> Taps;
  std::vector<int> Off(static_cast<std::size_t>(Dims), -Radius);
  while (true) {
    int NonZero = 0;
    for (int O : Off)
      NonZero += O != 0;
    bool OnAxis = NonZero <= 1;
    if (Kind == Shape::Box || OnAxis ||
        (Kind == Shape::Jacobi && R.uniform(0, 1) < 0.3))
      Taps.push_back(Off);
    int D = Dims - 1;
    while (D >= 0 && ++Off[static_cast<std::size_t>(D)] > Radius)
      Off[static_cast<std::size_t>(D--)] = -Radius;
    if (D < 0)
      break;
  }

  std::string Sum;
  for (const std::vector<int> &Tap : Taps) {
    if (!Sum.empty())
      Sum += "\n        + ";
    Sum += literal(R.uniform(0.05, 0.95), IsFloat) + " * A[t%2]";
    for (int D = 0; D < Dims; ++D)
      Sum += "[" + index(Vars[D], Tap[static_cast<std::size_t>(D)]) + "]";
  }
  std::string Rhs = Kind == Shape::Jacobi
                        ? "(" + Sum + ") / " +
                              literal(R.uniform(1.5, 9.5), IsFloat)
                        : Sum;

  static const char *ShapeNames[] = {"star", "box", "jac"};
  GeneratedStencil Out;
  Out.IsFloat = IsFloat;
  Out.Name = std::string("gen_") + ShapeNames[static_cast<int>(Kind)] +
             std::to_string(Dims) + "d" + std::to_string(Radius) + "r_" +
             (IsFloat ? "f" : "d");
  std::string Src = "for (t = 0; t < I_T; t++)\n";
  for (int D = 0; D < Dims; ++D)
    Src += std::string(2 * (D + 1), ' ') + "for (" + Vars[D] + " = " +
           std::to_string(Radius) + "; " + Vars[D] + " <= I_S" +
           std::to_string(Dims - D) + "; " + Vars[D] + "++)\n";
  Src += std::string(2 * (Dims + 1), ' ') + "A[(t+1)%2]";
  for (int D = 0; D < Dims; ++D)
    Src += std::string("[") + Vars[D] + "]";
  Src += " = " + Rhs + ";\n";
  Out.Source = std::move(Src);
  return Out;
}

} // namespace

std::vector<GeneratedStencil> generateStencils(std::uint64_t Seed) {
  Rng R{Seed * 0x2545f4914f6cdd1dULL + 1};
  std::vector<GeneratedStencil> Set;
  for (int Dims = 1; Dims <= 3; ++Dims)
    for (Shape Kind : {Shape::Star, Shape::Box, Shape::Jacobi})
      for (int Radius = 1; Radius <= 4; ++Radius)
        for (bool IsFloat : {true, false}) {
          // A 3D box of radius 3-4 has 343-729 taps: its emulator check
          // alone would outweigh the rest of the workload.
          if (Dims == 3 && Kind != Shape::Star && Radius > 2)
            continue;
          Set.push_back(makeOne(R, Kind, Dims, Radius, IsFloat));
        }
  return Set;
}

} // namespace perfbench
