#include "idlz/shaping.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>

#include "geom/arc.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/parallel.h"

namespace feio::idlz {
namespace {

std::string sub_ctx(const Subdivision& s) {
  return "subdivision " + std::to_string(s.id);
}

// Evaluates a located side at fractional node index f (0 <= f <= n-1) by
// linear interpolation between adjacent side nodes. This index-based rule
// (rather than arclength) propagates the user's chosen node-spacing gradient
// into the interior, matching the FORTRAN interpolation.
geom::Vec2 side_at(const std::vector<geom::Vec2>& pts, double f) {
  FEIO_ASSERT(!pts.empty());
  if (pts.size() == 1) return pts.front();
  f = std::clamp(f, 0.0, static_cast<double>(pts.size() - 1));
  const auto lo = static_cast<size_t>(f);
  if (lo + 1 >= pts.size()) return pts.back();
  return geom::lerp(pts[lo], pts[lo + 1], f - static_cast<double>(lo));
}

struct SideState {
  std::vector<int> nodes;       // node ids along the side
  bool located = false;         // every node has coordinates
  int own_card_hits = 0;        // nodes located by this subdivision's cards
};

}  // namespace

std::vector<GridPoint> shape_line_run(const ShapeLine& line) {
  const int dk = line.k2 - line.k1;
  const int dl = line.l2 - line.l1;
  if (dk == 0 && dl == 0) return {GridPoint{line.k1, line.l1}};
  const int g = std::gcd(std::abs(dk), std::abs(dl));
  const int sk = dk / g;
  const int sl = dl / g;
  std::vector<GridPoint> run;
  run.reserve(static_cast<size_t>(g) + 1);
  for (int j = 0; j <= g; ++j) {
    run.push_back(GridPoint{line.k1 + sk * j, line.l1 + sl * j});
  }
  return run;
}

ShapingReport shape(const std::vector<Subdivision>& subdivisions,
                    const std::vector<ShapingSpec>& specs, Assembly& assembly,
                    const Limits& limits) {
  ShapingReport report;
  std::vector<char> located(static_cast<size_t>(assembly.mesh.num_nodes()), 0);
  std::vector<char> by_card(static_cast<size_t>(assembly.mesh.num_nodes()), 0);

  std::map<int, const ShapingSpec*> spec_of;
  for (const ShapingSpec& sp : specs) {
    FEIO_REQUIRE(spec_of.emplace(sp.subdivision_id, &sp).second,
                 "duplicate shaping spec for subdivision " +
                     std::to_string(sp.subdivision_id));
    const bool known =
        std::any_of(subdivisions.begin(), subdivisions.end(),
                    [&](const Subdivision& s) {
                      return s.id == sp.subdivision_id;
                    });
    FEIO_REQUIRE(known, "shaping spec names unknown subdivision " +
                            std::to_string(sp.subdivision_id));
  }

  for (size_t si = 0; si < subdivisions.size(); ++si) {
    FEIO_CHECK_CANCEL("idlz.shape.subdivision");
    FEIO_FAULT("idlz.shape");
    const Subdivision& sub = subdivisions[si];
    std::vector<char> own(static_cast<size_t>(assembly.mesh.num_nodes()), 0);

    // --- Apply this subdivision's type-6 cards. -------------------------
    auto it = spec_of.find(sub.id);
    if (it != spec_of.end()) {
      for (const ShapeLine& line : it->second->lines) {
        const std::vector<GridPoint> run = shape_line_run(line);
        for (const GridPoint& gp : run) {
          if (!sub.contains(gp.k, gp.l)) {
            fail("shape line covers grid point (" + std::to_string(gp.k) +
                     "," + std::to_string(gp.l) +
                     ") outside the subdivision",
                 sub_ctx(sub));
          }
        }
        std::vector<geom::Vec2> positions;
        if (run.size() == 1) {
          positions = {line.p1};  // point-side of a triangular subdivision
        } else {
          const geom::Arc arc(line.p1, line.p2, line.radius,
                              limits.max_arc_subtended_deg);
          positions = arc.sample(static_cast<int>(run.size()) - 1);
        }
        for (size_t j = 0; j < run.size(); ++j) {
          const int n = assembly.node_at.at(run[j]);
          assembly.mesh.set_pos(n, positions[j]);
          if (!located[static_cast<size_t>(n)]) ++report.nodes_from_cards;
          located[static_cast<size_t>(n)] = 1;
          by_card[static_cast<size_t>(n)] = 1;
          own[static_cast<size_t>(n)] = 1;
        }
      }
    }

    // --- Determine which opposite pair of sides is fully located. -------
    auto side_state = [&](Side side) {
      SideState st;
      for (const GridPoint& gp : side_points(sub, side)) {
        const int n = assembly.node_at.at(gp);
        st.nodes.push_back(n);
        st.own_card_hits += own[static_cast<size_t>(n)];
      }
      st.located = std::all_of(st.nodes.begin(), st.nodes.end(), [&](int n) {
        return located[static_cast<size_t>(n)] != 0;
      });
      return st;
    };
    const SideState par_lo = side_state(Side::kParallelLow);
    const SideState par_hi = side_state(Side::kParallelHigh);
    const SideState cross_lo = side_state(Side::kCrossLow);
    const SideState cross_hi = side_state(Side::kCrossHigh);

    const bool parallel_ok = par_lo.located && par_hi.located;
    const bool cross_ok = cross_lo.located && cross_hi.located;
    if (!parallel_ok && !cross_ok) {
      fail("no fully-located pair of opposite sides; locate every node on "
           "two opposite sides with type-6 cards (or via an adjacent, "
           "earlier subdivision)",
           sub_ctx(sub));
    }
    // Prefer the pair the user's own cards shaped; break ties toward the
    // parallel pair.
    bool use_parallel = parallel_ok;
    if (parallel_ok && cross_ok) {
      const int par_hits = par_lo.own_card_hits + par_hi.own_card_hits;
      const int cross_hits = cross_lo.own_card_hits + cross_hi.own_card_hits;
      use_parallel = par_hits >= cross_hits;
    }

    // --- Locate the remaining nodes by linear interpolation. ------------
    // Strips touch disjoint node sets within a subdivision (only side
    // nodes are shared, and those are already located, making place() a
    // read-only no-op for them), so the strip loop runs in parallel with
    // per-chunk interpolation counters summed in chunk order. Each node's
    // position depends only on the side snapshots, never on another
    // strip's result — output is identical to a serial sweep.
    const int strips = sub.strip_count();
    auto place = [&](int n, geom::Vec2 p, int& count) {
      if (located[static_cast<size_t>(n)]) return;  // never move a node twice
      assembly.mesh.set_pos(n, p);
      located[static_cast<size_t>(n)] = 1;
      ++count;
    };
    const int chunks = util::chunk_count(strips, 0);
    std::vector<int> interpolated(static_cast<size_t>(chunks), 0);

    if (use_parallel) {
      auto positions_of = [&](const SideState& st) {
        std::vector<geom::Vec2> pts;
        pts.reserve(st.nodes.size());
        for (int n : st.nodes) pts.push_back(assembly.mesh.pos(n));
        return pts;
      };
      const std::vector<geom::Vec2> low = positions_of(par_lo);
      const std::vector<geom::Vec2> high = positions_of(par_hi);
      util::parallel_chunks(
          strips, chunks, [&](int c, std::int64_t begin, std::int64_t end) {
            for (int s = static_cast<int>(begin); s < end; ++s) {
              const double v =
                  strips > 1 ? static_cast<double>(s) / (strips - 1) : 0.0;
              const int w = sub.strip_width(s);
              for (int j = 0; j < w; ++j) {
                const double u =
                    w > 1 ? static_cast<double>(j) / (w - 1) : 0.5;
                const geom::Vec2 pa = side_at(low, u * (low.size() - 1));
                const geom::Vec2 pb = side_at(high, u * (high.size() - 1));
                place(assembly.node_at.at(sub.strip_node(s, j)),
                      geom::lerp(pa, pb, v),
                      interpolated[static_cast<size_t>(c)]);
              }
            }
          });
    } else {
      util::parallel_chunks(
          strips, chunks, [&](int c, std::int64_t begin, std::int64_t end) {
            for (int s = static_cast<int>(begin); s < end; ++s) {
              const int w = sub.strip_width(s);
              const geom::Vec2 pa =
                  assembly.mesh.pos(cross_lo.nodes[static_cast<size_t>(s)]);
              const geom::Vec2 pb =
                  assembly.mesh.pos(cross_hi.nodes[static_cast<size_t>(s)]);
              for (int j = 0; j < w; ++j) {
                const double u =
                    w > 1 ? static_cast<double>(j) / (w - 1) : 0.5;
                place(assembly.node_at.at(sub.strip_node(s, j)),
                      geom::lerp(pa, pb, u),
                      interpolated[static_cast<size_t>(c)]);
              }
            }
          });
    }
    for (int count : interpolated) report.nodes_interpolated += count;
  }

  const auto unlocated =
      std::count(located.begin(), located.end(), static_cast<char>(0));
  FEIO_REQUIRE(unlocated == 0, std::to_string(unlocated) +
                                   " nodes remain unlocated after shaping");

  // Shaping moves nodes and orient_ccw only permutes corners, so the
  // boundary flags assemble() computed still hold.
  assembly.mesh.orient_ccw();
  return report;
}

}  // namespace feio::idlz
