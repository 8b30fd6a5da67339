#include "dist/catalog.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "dist/shapes.hpp"

namespace genas {

namespace {

/// Seed base for the numbered entries; changing it would change every dK.
constexpr std::uint64_t kCatalogSeed = 0x47454E41532D6431ULL;  // "GENAS-d1"

}  // namespace

DistributionCatalog::DistributionCatalog(std::int64_t domain_size)
    : domain_size_(domain_size) {
  GENAS_REQUIRE(domain_size >= 1, ErrorCode::kInvalidArgument,
                "catalog needs a positive domain size");
}

DiscreteDistribution DistributionCatalog::numbered(int k) const {
  GENAS_REQUIRE(k >= 1 && k <= kNumbered, ErrorCode::kNotFound,
                "numbered catalog entries are d1..d" + std::to_string(kNumbered));
  // The entry is a Gaussian mixture on the normalized domain whose
  // parameters come from a PRNG seeded by k alone — independent of the
  // discretization, so dK scales across domain sizes.
  Rng rng(kCatalogSeed + static_cast<std::uint64_t>(k));
  const std::uint64_t bumps = 1 + rng.below(3);
  struct Bump {
    double center;
    double sigma;
    double weight;
  };
  std::vector<Bump> mixture;
  mixture.reserve(bumps);
  for (std::uint64_t b = 0; b < bumps; ++b) {
    Bump bump;
    bump.center = rng.uniform(0.05, 0.95);
    bump.sigma = rng.uniform(0.03, 0.25);
    bump.weight = rng.uniform(0.3, 1.0);
    mixture.push_back(bump);
  }
  const double baseline = rng.uniform(0.0, 0.35);

  std::vector<double> weights(static_cast<std::size_t>(domain_size_));
  for (std::int64_t i = 0; i < domain_size_; ++i) {
    const double x =
        (static_cast<double>(i) + 0.5) / static_cast<double>(domain_size_);
    double w = baseline;
    for (const Bump& bump : mixture) {
      const double z = (x - bump.center) / bump.sigma;
      w += bump.weight * std::exp(-0.5 * z * z);
    }
    weights[static_cast<std::size_t>(i)] = w;
  }
  return DiscreteDistribution::from_weights(std::move(weights));
}

DiscreteDistribution DistributionCatalog::by_name(std::string_view name) const {
  const std::string key = to_lower(trim(name));
  GENAS_REQUIRE(!key.empty(), ErrorCode::kInvalidArgument,
                "catalog name must not be empty");

  if (key == "equal" || key == "uniform") return shapes::equal(domain_size_);
  if (key == "gauss") return shapes::gauss(domain_size_);
  if (key == "gauss-low") return shapes::relocated_gauss(domain_size_, false);
  if (key == "gauss-high") return shapes::relocated_gauss(domain_size_, true);
  if (key == "falling") return shapes::falling(domain_size_);
  if (key == "rising") return shapes::rising(domain_size_);

  // dK — numbered entry; any other dK falls through to "no entry".
  if (key.front() == 'd') {
    const auto k = parse_number<int>(std::string_view(key).substr(1));
    if (k && *k >= 1 && *k <= kNumbered) return numbered(*k);
  }

  // "NN% high" / "NN% low" — percent peaks. A count padded before the '%'
  // ("5 % high") names a percent peak, but not a valid mass.
  const std::size_t percent = key.find('%');
  const std::string_view mass = std::string_view(key).substr(0, percent);
  const auto pct = percent == std::string::npos
                       ? std::nullopt
                       : parse_number<std::int64_t>(trim(mass));
  if (pct) {
    GENAS_REQUIRE(mass == trim(mass) && *pct >= 1 && *pct <= 100,
                  ErrorCode::kInvalidArgument,
                  "percent peak mass must lie in 1..100");
    const std::string_view tail = trim(std::string_view(key).substr(percent + 1));
    GENAS_REQUIRE(tail == "high" || tail == "low", ErrorCode::kParse,
                  "percent peak must end in 'high' or 'low'");
    return shapes::percent_peak(domain_size_, static_cast<double>(*pct) / 100.0,
                                tail == "high");
  }

  throw_error(ErrorCode::kNotFound, "no catalog entry named '" + key + "'");
}

std::vector<std::string> DistributionCatalog::names() const {
  std::vector<std::string> out = {
      "equal",   "uniform",  "gauss",    "gauss-low", "gauss-high",
      "falling", "rising",   "95% high", "95% low",   "90% low",
  };
  out.reserve(out.size() + kNumbered);
  for (int k = 1; k <= kNumbered; ++k) {
    std::string entry = "d";
    entry += std::to_string(k);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace genas
