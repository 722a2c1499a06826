#include "sens/core/sens_router.hpp"

#include <cmath>

namespace sens {

SensRoute SensRouter::route(Site src, Site dst) const {
  SensRouteScratch scratch;
  return route(src, dst, scratch);
}

SensRoute SensRouter::route(Site src, Site dst, SensRouteScratch& scratch) const {
  SensRoute out;
  const MeshRoute mesh_route = mesh_.route(src, dst, scratch.mesh);
  out.probes = mesh_route.probes;
  if (!mesh_route.success) return out;
  out.tile_hops = mesh_route.hops();

  const Overlay& ov = *overlay_;
  out.node_path.push_back(ov.rep_of(src));
  for (std::size_t i = 1; i < mesh_route.path.size(); ++i)
    ov.append_tile_hop(mesh_route.path[i - 1], mesh_route.path[i], out.node_path);

  for (std::size_t i = 1; i < out.node_path.size(); ++i) {
    const double d = ov.geo.edge_length(out.node_path[i - 1], out.node_path[i]);
    out.euclid_length += d;
    out.power2 += d * d;
  }
  out.success = true;
  return out;
}

}  // namespace sens
