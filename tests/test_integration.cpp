// Cross-module integration tests: the tile coupling feeding the percolation
// machinery, end-to-end consistency between the two SENS constructions and
// their analytics, and the router/mesh-router correspondence.
#include <gtest/gtest.h>

#include <cmath>

#include "sens/core/coverage.hpp"
#include "sens/core/metrics.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/perc/clusters.hpp"
#include "sens/perc/crossing.hpp"
#include "sens/perc/mesh_router.hpp"
#include "sens/tiles/good_prob.hpp"

namespace sens {
namespace {

TEST(Coupling, CoupledGridBehavesLikeBernoulliPercolation) {
  // The coupled goodness grid of a large window should cross left-right
  // when P(good) is well above p_c, and not when well below.
  const UdgTileSpec spec = UdgTileSpec::strict();
  const UdgSensResult super = build_udg_sens(spec, 30.0, 48, 48, 100);  // P(good) ~ 0.77
  EXPECT_TRUE(has_lr_crossing(super.overlay.sites));
  const UdgSensResult sub = build_udg_sens(spec, 12.0, 48, 48, 100);  // P(good) ~ 0.25
  EXPECT_FALSE(has_lr_crossing(sub.overlay.sites));
}

TEST(Coupling, OpenFractionTracksGoodProbability) {
  const UdgTileSpec spec = UdgTileSpec::strict();
  const double lambda = 22.0;
  const UdgSensResult r = build_udg_sens(spec, lambda, 40, 40, 55);
  const double frac = r.overlay.sites.open_fraction();
  const double mc = udg_good_probability(spec, lambda, 6000, 77).estimate();
  EXPECT_NEAR(frac, mc, 0.06);
}

TEST(Coupling, GiantClusterRepsBelongToOneOverlayComponent) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 40, 40, 4);
  const ClusterLabels labels(r.overlay.sites);
  std::uint32_t comp = 0xffffffffu;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < r.overlay.sites.num_sites(); ++i) {
    const Site s = r.overlay.sites.site_at(i);
    if (!labels.in_largest(s)) continue;
    const std::uint32_t rep = r.overlay.rep_of(s);
    ASSERT_NE(rep, kNoNode);
    if (comp == 0xffffffffu) comp = r.overlay.comps.label[rep];
    EXPECT_EQ(r.overlay.comps.label[rep], comp);
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST(Coupling, GiantRepSitesEqualsCoupledGiantCluster) {
  // The overlay giant component contains exactly the reps of the coupled
  // giant cluster (plus their relays) when the spec guarantees edges.
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 32, 32, 8);
  const ClusterLabels labels(r.overlay.sites);
  const auto giant_sites = r.overlay.giant_rep_sites();
  std::size_t cluster_sites = 0;
  for (std::size_t i = 0; i < r.overlay.sites.num_sites(); ++i)
    if (labels.in_largest(r.overlay.sites.site_at(i))) ++cluster_sites;
  EXPECT_EQ(giant_sites.size(), cluster_sites);
}

TEST(RouterCorrespondence, SensRouteFollowsMeshRoute) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 32, 32, 15);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 2u);
  const Site a = reps.front();
  const Site b = reps.back();
  const MeshRouter mesh(r.overlay.sites);
  const SensRouter sens(r.overlay);
  const MeshRoute mr = mesh.route(a, b);
  const SensRoute sr = sens.route(a, b);
  ASSERT_TRUE(mr.success);
  ASSERT_TRUE(sr.success);
  EXPECT_EQ(sr.tile_hops, mr.hops());
  EXPECT_EQ(sr.probes, mr.probes);
  // Node path visits the rep of every mesh-route tile, in order.
  std::size_t cursor = 0;
  for (const Site s : mr.path) {
    const std::uint32_t rep = r.overlay.rep_of(s);
    bool found = false;
    for (; cursor < sr.node_path.size(); ++cursor) {
      if (sr.node_path[cursor] == rep) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "rep of mesh tile not on node path in order";
  }
}

TEST(CoverageTheorem, DecayRateSharperAtHigherDensity) {
  // Section 3.2's monotonicity claim: larger lambda => sharper exponential
  // decay of the empty-block probability.
  const UdgTileSpec spec = UdgTileSpec::strict();
  const int sizes[] = {1, 2, 3, 4};
  const UdgSensResult lo = build_udg_sens(spec, 21.0, 56, 56, 31);
  const UdgSensResult hi = build_udg_sens(spec, 30.0, 56, 56, 31);
  const auto p_lo = empty_block_probability(lo.overlay, sizes);
  const auto p_hi = empty_block_probability(hi.overlay, sizes);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LE(p_hi[i], p_lo[i] + 1e-12);
  EXPECT_LT(p_hi[1], p_lo[1]);
}

TEST(StretchTheorem, HopsScaleLinearlyWithLatticeDistance) {
  // Theorem 3.2: overlay distance is at most a constant times the lattice
  // distance, w.h.p. — the hop/lattice ratio should concentrate.
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 48, 48, 77);
  const auto samples = sample_overlay_stretch(r.overlay, 120, 9);
  ASSERT_GT(samples.size(), 50u);
  double worst = 0.0;
  for (const auto& s : samples) {
    if (s.lattice < 5) continue;  // skip short-range noise
    worst = std::max(worst, s.hop_per_lattice());
  }
  EXPECT_GT(worst, 0.0);
  // Each lattice step costs ~3 overlay hops (rep -> relay -> relay -> rep)
  // and BFS detours around bad tiles inflate the worst case further; a
  // small-constant ceiling of 15 is the qualitative claim under test.
  EXPECT_LT(worst, 15.0) << "hop stretch should be a small constant";
}

TEST(EndToEnd, RebuildIsDeterministic) {
  const UdgSensResult a = build_udg_sens(UdgTileSpec::strict(), 25.0, 16, 16, 123);
  const UdgSensResult b = build_udg_sens(UdgTileSpec::strict(), 25.0, 16, 16, 123);
  EXPECT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.classification.good, b.classification.good);
  EXPECT_EQ(a.overlay.geo.graph.num_edges(), b.overlay.geo.graph.num_edges());
  EXPECT_EQ(a.overlay.base_index, b.overlay.base_index);
}

}  // namespace
}  // namespace sens
