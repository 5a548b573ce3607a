#include "reference_udfs.h"

#include <cctype>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "udf/builtin_udfs.h"

namespace opd::reference {
namespace {

using storage::Row;
using storage::Schema;
using storage::Value;

std::string ParamText(const udf::Params& params, const std::string& key,
                      const std::string& default_value) {
  auto it = params.find(key);
  return it == params.end() ? default_value : it->second.ToString();
}

// A row with `extra` appended.
Row Extended(const Row& row, std::initializer_list<Value> extra) {
  Row out = row;
  out.insert(out.end(), extra);
  return out;
}

// Map: (user_id, lexicon score of tweet_text). Reduce: per user the sum
// (or mean) of the scores, kept above the threshold parameter.
std::vector<RowBody> UserScore(const std::string& lexicon,
                               const std::string& threshold_key,
                               double default_threshold, bool mean) {
  RowBody score;
  score.map = [lexicon](const Row& row, const Schema& in, const udf::Params&,
                        Rows* out) {
    const Value& text = Cell(row, in, "tweet_text");
    const double s =
        text.is_null() ? 0.0 : udf::LexiconScore(text.as_string(), lexicon);
    out->push_back({Cell(row, in, "user_id"), Value(s)});
  };
  RowBody aggregate;
  aggregate.reduce = [threshold_key, default_threshold, mean](
                         const Rows& group, const Schema& in,
                         const udf::Params& params, Rows* out) {
    double sum = 0;
    for (const Row& r : group) sum += Cell(r, in, "_score").ToDouble();
    const double v = mean ? sum / static_cast<double>(group.size()) : sum;
    if (v > udf::ParamDouble(params, threshold_key, default_threshold)) {
      out->push_back({Cell(group.front(), in, "user_id"), Value(v)});
    }
  };
  return {score, aggregate};
}

std::vector<RowBody> Friendship() {
  RowBody pairs;
  pairs.map = [](const Row& row, const Schema& in, const udf::Params&,
                 Rows* out) {
    const Value& u = Cell(row, in, "user_id");
    const Value& m = Cell(row, in, "mention_user");
    if (u.is_null() || m.is_null()) return;
    const int64_t a = u.as_int64(), b = m.as_int64();
    if (b < 0 || a == b) return;
    out->push_back({Value(std::min(a, b)), Value(std::max(a, b))});
  };
  RowBody strength;
  strength.reduce = [](const Rows& group, const Schema& in,
                       const udf::Params& params, Rows* out) {
    const double s = static_cast<double>(group.size());
    if (s > udf::ParamDouble(params, "min_strength", 1.0)) {
      out->push_back({Cell(group.front(), in, "user_a"),
                      Cell(group.front(), in, "user_b"), Value(s)});
    }
  };
  return {pairs, strength};
}

std::vector<RowBody> Influence() {
  RowBody emit;
  emit.map = [](const Row& row, const Schema& in, const udf::Params&,
                Rows* out) {
    const Value& s = Cell(row, in, "strength");
    out->push_back({Cell(row, in, "user_a"), s});
    out->push_back({Cell(row, in, "user_b"), s});
  };
  RowBody sum;
  sum.reduce = [](const Rows& group, const Schema& in,
                  const udf::Params& params, Rows* out) {
    double total = 0;
    for (const Row& r : group) total += Cell(r, in, "_s").ToDouble();
    if (total > udf::ParamDouble(params, "min_influence", 0.0)) {
      out->push_back({Cell(group.front(), in, "inf_user"), Value(total)});
    }
  };
  return {emit, sum};
}

std::vector<RowBody> ExtractLatLon() {
  RowBody parse;
  parse.map = [](const Row& row, const Schema& in, const udf::Params&,
                 Rows* out) {
    const Value& geo = Cell(row, in, "geo");
    double lat, lon;
    if (geo.is_null() || !udf::ParseLatLon(geo.as_string(), &lat, &lon)) {
      return;
    }
    out->push_back(Extended(row, {Value(lat), Value(lon)}));
  };
  return {parse};
}

std::vector<RowBody> GeoTile() {
  RowBody tile;
  tile.map = [](const Row& row, const Schema& in, const udf::Params& params,
                Rows* out) {
    const int64_t id = udf::GeoTileId(
        Cell(row, in, "lat").ToDouble(), Cell(row, in, "lon").ToDouble(),
        udf::ParamDouble(params, "tile_size", 1.0));
    out->push_back(Extended(row, {Value(id)}));
  };
  return {tile};
}

std::vector<RowBody> Tokenize() {
  RowBody split;
  split.map = [](const Row& row, const Schema& in, const udf::Params&,
                 Rows* out) {
    const Value& text = Cell(row, in, "tweet_text");
    if (text.is_null()) return;
    for (std::string& word : TokenizeWords(text.as_string())) {
      out->push_back({Cell(row, in, "user_id"), Value(std::move(word))});
    }
  };
  return {split};
}

std::vector<RowBody> WordCount() {
  RowBody emit;
  emit.map = [](const Row& row, const Schema& in, const udf::Params&,
                Rows* out) {
    out->push_back({Cell(row, in, "token"), Value(int64_t{1})});
  };
  RowBody count;
  count.reduce = [](const Rows& group, const Schema& in,
                    const udf::Params& params, Rows* out) {
    const auto n = static_cast<int64_t>(group.size());
    if (static_cast<double>(n) > udf::ParamDouble(params, "min_count", 0.0)) {
      out->push_back({Cell(group.front(), in, "word"), Value(n)});
    }
  };
  return {emit, count};
}

std::vector<RowBody> MenuSimilarity() {
  RowBody sim;
  sim.map = [](const Row& row, const Schema& in, const udf::Params& params,
               Rows* out) {
    const Value& menu = Cell(row, in, "menu_text");
    const double s =
        menu.is_null() ? 0.0
                       : udf::JaccardSimilarity(
                             menu.as_string(),
                             ParamText(params, "ref_menu", ""));
    if (s > udf::ParamDouble(params, "min_sim", 0.1)) {
      out->push_back(Extended(row, {Value(s)}));
    }
  };
  return {sim};
}

std::vector<RowBody> ParseLog() {
  RowBody parse;
  parse.map = [](const Row& row, const Schema& in, const udf::Params&,
                 Rows* out) {
    const Value& meta = Cell(row, in, "raw_meta");
    std::string lang, device;
    udf::ParseLogMeta(meta.is_null() ? "" : meta.as_string(), &lang, &device);
    out->push_back(
        Extended(row, {Value(std::move(lang)), Value(std::move(device))}));
  };
  return {parse};
}

std::vector<RowBody> HashtagTrends() {
  RowBody extract;
  extract.map = [](const Row& row, const Schema& in, const udf::Params&,
                   Rows* out) {
    const Value& text = Cell(row, in, "tweet_text");
    if (text.is_null()) return;
    const std::string& s = text.as_string();
    size_t i = 0;
    while ((i = s.find('#', i)) != std::string::npos) {
      size_t j = i + 1;
      while (j < s.size() &&
             (std::isalnum(static_cast<unsigned char>(s[j])) || s[j] == '_')) {
        ++j;
      }
      if (j > i + 1) {
        out->push_back({Value(ToLowerAscii(s.substr(i + 1, j - i - 1))),
                        Cell(row, in, "user_id")});
      }
      i = j;
    }
  };
  RowBody distinct;
  distinct.reduce = [](const Rows& group, const Schema& in,
                       const udf::Params&, Rows* out) {
    std::set<int64_t> users;
    for (const Row& r : group) users.insert(Cell(r, in, "_user").as_int64());
    out->push_back({Cell(group.front(), in, "tag"),
                    Value(static_cast<int64_t>(users.size()))});
  };
  RowBody tier;
  tier.map = [](const Row& row, const Schema& in, const udf::Params& params,
                Rows* out) {
    const double min_users = udf::ParamDouble(params, "min_users", 2.0);
    const double users = Cell(row, in, "tag_users").ToDouble();
    if (users <= min_users) return;
    out->push_back(
        Extended(row, {Value(users > 4 * min_users ? "hot" : "rising")}));
  };
  return {extract, distinct, tier};
}

struct Registry {
  std::mutex mu;
  std::map<std::string, std::vector<RowBody>> bodies;

  Registry() {
    bodies["UDF_CLASSIFY_WINE_SCORE"] =
        UserScore("wine", "threshold", 0.5, /*mean=*/false);
    bodies["UDF_CLASSIFY_FOOD_SCORE"] =
        UserScore("food", "threshold", 0.5, /*mean=*/false);
    bodies["UDAF_CLASSIFY_AFFLUENT"] =
        UserScore("luxury", "min_affluence", 0.05, /*mean=*/true);
    bodies["UDF_FRIENDSHIP_STRENGTH"] = Friendship();
    bodies["UDF_NETWORK_INFLUENCE"] = Influence();
    bodies["UDF_EXTRACT_LATLON"] = ExtractLatLon();
    bodies["UDF_GEO_TILE"] = GeoTile();
    bodies["UDF_TOKENIZE"] = Tokenize();
    bodies["UDF_WORD_COUNT"] = WordCount();
    bodies["UDF_MENU_SIMILARITY"] = MenuSimilarity();
    bodies["UDF_PARSE_LOG"] = ParseLog();
    bodies["UDF_HASHTAG_TRENDS"] = HashtagTrends();
  }
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

}  // namespace

const Value& Cell(const Row& row, const Schema& schema,
                  const std::string& column) {
  return row[*schema.IndexOf(column)];
}

Result<std::vector<RowBody>> RowBodies(const std::string& udf_name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.bodies.find(udf_name);
  if (it == registry.bodies.end()) {
    return Status::NotFound("reference: no per-row bodies for " + udf_name);
  }
  return it->second;
}

void RegisterRowBodies(const std::string& udf_name,
                       std::vector<RowBody> bodies) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.bodies[udf_name] = std::move(bodies);
}

}  // namespace opd::reference
