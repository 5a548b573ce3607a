#include "udf/builtin_udfs.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>

#include "common/string_util.h"

namespace opd::udf {

using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Value;

namespace {

const std::map<std::string, double>& Lexicon(const std::string& name) {
  static const std::map<std::string, double> kWine = {
      {"wine", 0.30},    {"merlot", 0.35},   {"cabernet", 0.35},
      {"pinot", 0.30},   {"chardonnay", 0.30}, {"vineyard", 0.25},
      {"tannin", 0.20},  {"sommelier", 0.40}, {"rose", 0.15},
      {"riesling", 0.30}, {"corked", -0.20},  {"vinegar", -0.25},
  };
  static const std::map<std::string, double> kFood = {
      {"delicious", 0.35}, {"tasty", 0.30},  {"yummy", 0.30},
      {"brunch", 0.20},    {"foodie", 0.40}, {"pasta", 0.20},
      {"ramen", 0.25},     {"dessert", 0.25}, {"savory", 0.25},
      {"bland", -0.30},    {"stale", -0.35}, {"burnt", -0.25},
  };
  static const std::map<std::string, double> kLuxury = {
      {"yacht", 0.45},    {"penthouse", 0.40}, {"champagne", 0.35},
      {"caviar", 0.40},   {"firstclass", 0.35}, {"designer", 0.25},
      {"chauffeur", 0.35}, {"resort", 0.20},   {"golf", 0.15},
      {"thrift", -0.20},  {"coupon", -0.15},
  };
  static const std::map<std::string, double> kEmpty = {};
  if (name == "wine") return kWine;
  if (name == "food") return kFood;
  if (name == "luxury") return kLuxury;
  return kEmpty;
}

}  // namespace

double LexiconScore(std::string_view text, const std::string& lexicon) {
  const auto& lex = Lexicon(lexicon);
  double score = 0;
  for (const std::string& word : TokenizeWords(text)) {
    auto it = lex.find(word);
    if (it != lex.end()) score += it->second;
  }
  return score;
}

double JaccardSimilarity(std::string_view a, std::string_view b) {
  auto wa = TokenizeWords(a);
  auto wb = TokenizeWords(b);
  std::set<std::string> sa(wa.begin(), wa.end());
  std::set<std::string> sb(wb.begin(), wb.end());
  if (sa.empty() && sb.empty()) return 0.0;
  size_t inter = 0;
  for (const auto& w : sa) inter += sb.count(w);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

int64_t GeoTileId(double lat, double lon, double tile_size) {
  if (tile_size <= 0) tile_size = 1.0;
  int64_t r = static_cast<int64_t>(std::floor((lat + 90.0) / tile_size));
  int64_t c = static_cast<int64_t>(std::floor((lon + 180.0) / tile_size));
  return r * 1000000 + c;
}

namespace {

// std::stod on a view: leading whitespace is skipped and trailing text
// ignored; false where std::stod throws (nothing converts, or the value is
// out of range).
bool ParseDouble(std::string_view s, double* out) {
  char small[64];
  std::string large;
  const char* text = small;
  if (s.size() < sizeof(small)) {
    std::memcpy(small, s.data(), s.size());
    small[s.size()] = '\0';
  } else {
    large.assign(s);
    text = large.c_str();
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

bool ParseLatLon(std::string_view geo, double* lat, double* lon) {
  size_t comma = geo.find(',');
  if (comma == std::string_view::npos) return false;
  if (!ParseDouble(geo.substr(0, comma), lat) ||
      !ParseDouble(geo.substr(comma + 1), lon)) {
    return false;
  }
  return *lat >= -90.0 && *lat <= 90.0 && *lon >= -180.0 && *lon <= 180.0;
}

void ParseLogMeta(std::string_view meta, std::string* lang,
                  std::string* device) {
  *lang = "unknown";
  *device = "unknown";
  for (const std::string& field : SplitString(meta, ';')) {
    auto kv = SplitString(field, '=');
    if (kv.size() != 2) continue;
    if (kv[0] == "lang") *lang = kv[1];
    if (kv[0] == "dev") *device = kv[1];
  }
}

namespace {

using storage::ColumnVector;
using storage::RowBatch;
using storage::RowRange;

// --- Batch-body helpers ------------------------------------------------------

// Lowercased alphanumeric ASCII byte, or 0 for a word separator: the
// character classes of TokenizeWords.
const std::array<char, 256>& WordChars() {
  static const std::array<char, 256> table = [] {
    std::array<char, 256> t{};
    for (int c = 0; c < 256; ++c) {
      if (std::isalnum(c)) t[c] = static_cast<char>(std::tolower(c));
    }
    return t;
  }();
  return table;
}

// Calls fn(word) for each word of `text`, in order: the words of
// TokenizeWords, lowercased into the reused `buf` instead of one string
// each.
template <typename Fn>
void ForEachWord(std::string_view text, std::string* buf, Fn&& fn) {
  const std::array<char, 256>& chars = WordChars();
  buf->clear();
  for (char c : text) {
    const char folded = chars[static_cast<unsigned char>(c)];
    if (folded != 0) {
      buf->push_back(folded);
    } else if (!buf->empty()) {
      fn(std::string_view(*buf));
      buf->clear();
    }
  }
  if (!buf->empty()) fn(std::string_view(*buf));
}

// A lexicon as a word -> weight table keyed by views of its entries.
struct LexiconTable {
  std::unordered_map<std::string_view, double> weights;
  size_t min_len = SIZE_MAX;
  size_t max_len = 0;

  // LexiconScore of `text`: weights summed in word order.
  double Score(std::string_view text, std::string* buf) const {
    double score = 0;
    ForEachWord(text, buf, [&](std::string_view word) {
      if (word.size() < min_len || word.size() > max_len) return;
      auto it = weights.find(word);
      if (it != weights.end()) score += it->second;
    });
    return score;
  }
};

const LexiconTable& LexiconWeights(const std::string& name) {
  static const std::map<std::string, LexiconTable> tables = [] {
    std::map<std::string, LexiconTable> t;
    for (const char* lexicon : {"wine", "food", "luxury", ""}) {
      LexiconTable& table = t[lexicon];
      for (const auto& [word, weight] : Lexicon(lexicon)) {
        table.weights.emplace(word, weight);
        table.min_len = std::min(table.min_len, word.size());
        table.max_len = std::max(table.max_len, word.size());
      }
    }
    return t;
  }();
  auto it = tables.find(name);
  return it != tables.end() ? it->second : tables.at("");
}

// The word set of `text` (JaccardSimilarity's sets).
std::set<std::string> WordSet(std::string_view text, std::string* buf) {
  std::set<std::string> words;
  ForEachWord(text, buf,
              [&](std::string_view word) { words.emplace(word); });
  return words;
}

double Jaccard(const std::set<std::string>& a,
               const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t inter = 0;
  for (const auto& w : a) inter += b.count(w);
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

// ParseLogMeta over views: `lang` and `device` point into `meta` (or at
// "unknown").
void ParseLogFields(std::string_view meta, std::string_view* lang,
                    std::string_view* device) {
  *lang = "unknown";
  *device = "unknown";
  while (true) {
    const size_t semi = meta.find(';');
    const std::string_view field = meta.substr(0, semi);
    const size_t eq = field.find('=');
    if (eq != std::string_view::npos &&
        field.find('=', eq + 1) == std::string_view::npos) {
      const std::string_view key = field.substr(0, eq);
      if (key == "lang") *lang = field.substr(eq + 1);
      if (key == "dev") *device = field.substr(eq + 1);
    }
    if (semi == std::string_view::npos) return;
    meta.remove_prefix(semi + 1);
  }
}

Schema TwoColSchema(const std::string& a, DataType ta, const std::string& b,
                    DataType tb) {
  return Schema({Column{a, ta}, Column{b, tb}});
}

// A per-user "score tweets then aggregate then threshold" UDF: the shape of
// the paper's UDF_FOODIES (Figure 3). `mean` switches sum vs. mean reduce.
UdfDefinition MakeUserScoreUdf(const std::string& udf_name,
                               const std::string& lexicon,
                               const std::string& out_attr,
                               const std::string& threshold_key,
                               double default_threshold, bool mean) {
  UdfDefinition udf;
  udf.name = udf_name;
  udf.model.consumed = {"user_id", "tweet_text"};
  udf.model.kept = {"user_id"};
  udf.model.outputs = {
      {out_attr, DataType::kDouble, {"user_id", "tweet_text"}, {}}};
  udf.model.filters = {
      {out_attr, afk::CmpOp::kGt, threshold_key, default_threshold}};
  udf.model.rekey = std::vector<std::string>{"user_id"};
  udf.model.rekey_groups = true;
  udf.model.expansion_hint = 0.05;

  LocalFunction lf1;
  lf1.name = udf_name + "-lf1-score";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.reads = {"tweet_text"};
  lf1.passed = {"user_id"};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    auto uid = in.IndexOf("user_id");
    auto txt = in.IndexOf("tweet_text");
    if (!uid || !txt) {
      return Status::InvalidArgument("scorer needs user_id, tweet_text");
    }
    return TwoColSchema("user_id", DataType::kInt64, "_score",
                        DataType::kDouble);
  };
  const LexiconTable* table = &LexiconWeights(lexicon);
  lf1.map_fn = [table](const RowBatch& in, const LfContext& ctx,
                       BatchBuilder* out) {
    const ColumnVector& text = in.column(ctx.cols[0]);
    std::string buf;
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      out->Keep(i);
      out->AppendDouble(
          1, text.IsNull(i) ? 0.0 : table->Score(text.StringAt(i), &buf));
    }
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = udf_name + "-lf2-aggregate";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs | kOpFilter;
  lf2.group_keys = {"user_id"};
  lf2.reads = {"_score"};
  lf2.passed = {"user_id"};
  lf2.params = {{threshold_key, Value(default_threshold)}};
  lf2.out_schema = [out_attr](const Schema&, const Params&) -> Result<Schema> {
    return TwoColSchema("user_id", DataType::kInt64, out_attr,
                        DataType::kDouble);
  };
  lf2.reduce_fn = [mean](const RowBatch& in, RowRange group,
                         const LfContext& ctx, BatchBuilder* out) {
    const ColumnVector& scores = in.column(ctx.cols[0]);
    double sum = 0;
    for (size_t r = group.begin; r < group.end; ++r) {
      sum += scores.DoubleAt(r);
    }
    double score = mean && group.size() > 0
                       ? sum / static_cast<double>(group.size())
                       : sum;
    if (score > ctx.params[0].ToDouble()) {
      out->Keep(static_cast<uint32_t>(group.begin));
      out->AppendDouble(1, score);
    }
  };
  udf.local_functions.push_back(std::move(lf2));
  return udf;
}

}  // namespace

UdfDefinition MakeClassifyWineScoreUdf() {
  return MakeUserScoreUdf("UDF_CLASSIFY_WINE_SCORE", "wine", "wine_score",
                          "threshold", 0.5, /*mean=*/false);
}

UdfDefinition MakeClassifyFoodScoreUdf() {
  return MakeUserScoreUdf("UDF_CLASSIFY_FOOD_SCORE", "food", "sent_sum",
                          "threshold", 0.5, /*mean=*/false);
}

UdfDefinition MakeClassifyAffluentUdf() {
  return MakeUserScoreUdf("UDAF_CLASSIFY_AFFLUENT", "luxury", "affluence",
                          "min_affluence", 0.05, /*mean=*/true);
}

UdfDefinition MakeFriendshipStrengthUdf() {
  UdfDefinition udf;
  udf.name = "UDF_FRIENDSHIP_STRENGTH";
  udf.model.consumed = {"user_id", "mention_user"};
  udf.model.kept = {};
  udf.model.outputs = {
      {"user_a", DataType::kInt64, {"user_id", "mention_user"}, {}},
      {"user_b", DataType::kInt64, {"user_id", "mention_user"}, {}},
      {"strength", DataType::kDouble, {"user_id", "mention_user"}, {}},
  };
  udf.model.filters = {{"strength", afk::CmpOp::kGt, "min_strength", 1.0}};
  udf.model.rekey = std::vector<std::string>{"user_a", "user_b"};
  udf.model.expansion_hint = 0.02;

  LocalFunction lf1;
  lf1.name = "friendship-lf1-pairs";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs | kOpFilter;
  lf1.reads = {"user_id", "mention_user"};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("user_id") || !in.Has("mention_user")) {
      return Status::InvalidArgument(
          "friendship needs user_id and mention_user");
    }
    return Schema({Column{"user_a", DataType::kInt64},
                   Column{"user_b", DataType::kInt64}});
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& users = in.column(ctx.cols[0]);
    const ColumnVector& mentions = in.column(ctx.cols[1]);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      if (users.IsNull(i) || mentions.IsNull(i)) continue;
      const int64_t a = users.Int64At(i), b = mentions.Int64At(i);
      if (b < 0 || a == b) continue;  // no mention / self mention
      out->AppendInt64(0, std::min(a, b));
      out->AppendInt64(1, std::max(a, b));
    }
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = "friendship-lf2-strength";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs | kOpFilter;
  lf2.group_keys = {"user_a", "user_b"};
  lf2.passed = {"user_a", "user_b"};
  lf2.params = {{"min_strength", Value(1.0)}};
  lf2.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return Schema({Column{"user_a", DataType::kInt64},
                   Column{"user_b", DataType::kInt64},
                   Column{"strength", DataType::kDouble}});
  };
  lf2.reduce_fn = [](const RowBatch&, RowRange group, const LfContext& ctx,
                     BatchBuilder* out) {
    const double strength = static_cast<double>(group.size());
    if (strength > ctx.params[0].ToDouble()) {
      out->Keep(static_cast<uint32_t>(group.begin));
      out->AppendDouble(2, strength);
    }
  };
  udf.local_functions.push_back(std::move(lf2));
  return udf;
}

UdfDefinition MakeNetworkInfluenceUdf() {
  UdfDefinition udf;
  udf.name = "UDF_NETWORK_INFLUENCE";
  udf.model.consumed = {"user_a", "user_b", "strength"};
  udf.model.kept = {};
  udf.model.outputs = {
      {"inf_user", DataType::kInt64, {"user_a", "user_b"}, {}},
      {"influence", DataType::kDouble, {"user_a", "user_b", "strength"}, {}},
  };
  udf.model.filters = {{"influence", afk::CmpOp::kGt, "min_influence", 0.0}};
  udf.model.rekey = std::vector<std::string>{"inf_user"};
  udf.model.expansion_hint = 0.8;

  LocalFunction lf1;
  lf1.name = "influence-lf1-emit";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.reads = {"user_a", "user_b", "strength"};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("user_a") || !in.Has("user_b") || !in.Has("strength")) {
      return Status::InvalidArgument(
          "influence needs user_a, user_b, strength");
    }
    return TwoColSchema("inf_user", DataType::kInt64, "_s", DataType::kDouble);
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& a = in.column(ctx.cols[0]);
    const ColumnVector& b = in.column(ctx.cols[1]);
    const ColumnVector& s = in.column(ctx.cols[2]);
    for (size_t i = 0; i < in.num_rows(); ++i) {
      out->AppendCell(0, a, i);
      out->AppendCell(1, s, i);
      out->AppendCell(0, b, i);
      out->AppendCell(1, s, i);
    }
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = "influence-lf2-sum";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs | kOpFilter;
  lf2.group_keys = {"inf_user"};
  lf2.reads = {"_s"};
  lf2.passed = {"inf_user"};
  lf2.params = {{"min_influence", Value(0.0)}};
  lf2.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return TwoColSchema("inf_user", DataType::kInt64, "influence",
                        DataType::kDouble);
  };
  lf2.reduce_fn = [](const RowBatch& in, RowRange group, const LfContext& ctx,
                     BatchBuilder* out) {
    const ColumnVector& s = in.column(ctx.cols[0]);
    double sum = 0;
    for (size_t r = group.begin; r < group.end; ++r) sum += s.DoubleAt(r);
    if (sum > ctx.params[0].ToDouble()) {
      out->Keep(static_cast<uint32_t>(group.begin));
      out->AppendDouble(1, sum);
    }
  };
  udf.local_functions.push_back(std::move(lf2));
  return udf;
}

UdfDefinition MakeExtractLatLonUdf() {
  UdfDefinition udf;
  udf.name = "UDF_EXTRACT_LATLON";
  udf.model.consumed = {"geo"};
  udf.model.kept = {"*"};
  udf.model.outputs = {
      {"lat", DataType::kDouble, {"geo"}, {}},
      {"lon", DataType::kDouble, {"geo"}, {}},
  };
  UdfFilterSpec valid;
  valid.attr = "geo";
  valid.opaque = true;
  valid.opaque_fn = "valid_geo";
  udf.model.filters = {valid};
  udf.model.expansion_hint = 0.6;

  LocalFunction lf1;
  lf1.name = "latlon-lf1-parse";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs | kOpFilter;
  lf1.reads = {"geo"};
  lf1.passed = {"*"};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("geo")) return Status::InvalidArgument("needs geo");
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"lat", DataType::kDouble}));
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"lon", DataType::kDouble}));
    return out;
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& geo = in.column(ctx.cols[0]);
    const size_t lat_col = in.num_columns();
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      double lat, lon;
      if (geo.IsNull(i) || !ParseLatLon(geo.StringAt(i), &lat, &lon)) {
        continue;
      }
      out->Keep(i);
      out->AppendDouble(lat_col, lat);
      out->AppendDouble(lat_col + 1, lon);
    }
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeGeoTileUdf() {
  UdfDefinition udf;
  udf.name = "UDF_GEO_TILE";
  udf.model.consumed = {"lat", "lon"};
  udf.model.kept = {"*"};
  udf.model.outputs = {
      {"tile_id", DataType::kInt64, {"lat", "lon"}, {"tile_size"}}};
  udf.model.expansion_hint = 1.0;

  LocalFunction lf1;
  lf1.name = "geotile-lf1";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.reads = {"lat", "lon"};
  lf1.passed = {"*"};
  lf1.params = {{"tile_size", Value(1.0)}};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("lat") || !in.Has("lon")) {
      return Status::InvalidArgument("needs lat, lon");
    }
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"tile_id", DataType::kInt64}));
    return out;
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& lat = in.column(ctx.cols[0]);
    const ColumnVector& lon = in.column(ctx.cols[1]);
    const double tile_size = ctx.params[0].ToDouble();
    const size_t tile_col = in.num_columns();
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      out->Keep(i);
      out->AppendInt64(tile_col,
                       GeoTileId(lat.DoubleAt(i), lon.DoubleAt(i), tile_size));
    }
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeTokenizeUdf() {
  UdfDefinition udf;
  udf.name = "UDF_TOKENIZE";
  udf.model.consumed = {"user_id", "tweet_text"};
  udf.model.kept = {"user_id"};
  udf.model.outputs = {{"token", DataType::kString, {"tweet_text"}, {}}};
  // One-to-many explosion: the output rows are no longer keyed by the
  // input's key (each tweet yields many token rows), so the model must
  // clear K. Without this, COUNT-per-user over tokens would be
  // indistinguishable from COUNT-per-user over tweets.
  udf.model.rekey = std::vector<std::string>{};
  udf.model.rekey_groups = false;
  udf.model.expansion_hint = 8.0;

  LocalFunction lf1;
  lf1.name = "tokenize-lf1";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.reads = {"tweet_text"};
  lf1.passed = {"user_id"};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("user_id") || !in.Has("tweet_text")) {
      return Status::InvalidArgument("needs user_id, tweet_text");
    }
    return TwoColSchema("user_id", DataType::kInt64, "token",
                        DataType::kString);
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& text = in.column(ctx.cols[0]);
    std::string buf;
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      if (text.IsNull(i)) continue;
      ForEachWord(text.StringAt(i), &buf, [&](std::string_view word) {
        out->Keep(i);
        out->AppendString(1, word);
      });
    }
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeWordCountUdf() {
  UdfDefinition udf;
  udf.name = "UDF_WORD_COUNT";
  udf.model.consumed = {"token"};
  udf.model.kept = {};
  udf.model.outputs = {
      {"word", DataType::kString, {"token"}, {}},
      {"wcount", DataType::kInt64, {"token"}, {}},
  };
  udf.model.filters = {{"wcount", afk::CmpOp::kGt, "min_count", 0.0}};
  udf.model.rekey = std::vector<std::string>{"word"};
  udf.model.expansion_hint = 0.01;

  LocalFunction lf1;
  lf1.name = "wordcount-lf1-emit";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.passed = {"token"};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("token")) return Status::InvalidArgument("needs token");
    return TwoColSchema("word", DataType::kString, "_one", DataType::kInt64);
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext&, BatchBuilder* out) {
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      out->Keep(i);
      out->AppendInt64(1, 1);
    }
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = "wordcount-lf2-count";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs | kOpFilter;
  lf2.group_keys = {"word"};
  lf2.passed = {"word"};
  lf2.params = {{"min_count", Value(0.0)}};
  lf2.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return TwoColSchema("word", DataType::kString, "wcount", DataType::kInt64);
  };
  lf2.reduce_fn = [](const RowBatch&, RowRange group, const LfContext& ctx,
                     BatchBuilder* out) {
    const auto count = static_cast<int64_t>(group.size());
    if (static_cast<double>(count) > ctx.params[0].ToDouble()) {
      out->Keep(static_cast<uint32_t>(group.begin));
      out->AppendInt64(1, count);
    }
  };
  udf.local_functions.push_back(std::move(lf2));
  return udf;
}

UdfDefinition MakeMenuSimilarityUdf() {
  UdfDefinition udf;
  udf.name = "UDF_MENU_SIMILARITY";
  udf.model.consumed = {"menu_text"};
  udf.model.kept = {"*"};
  udf.model.outputs = {
      {"menu_sim", DataType::kDouble, {"menu_text"}, {"ref_menu"}}};
  udf.model.filters = {{"menu_sim", afk::CmpOp::kGt, "min_sim", 0.1}};
  udf.model.expansion_hint = 0.3;

  LocalFunction lf1;
  lf1.name = "menusim-lf1";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs | kOpFilter;
  lf1.reads = {"menu_text"};
  lf1.passed = {"*"};
  lf1.params = {{"ref_menu", Value("")}, {"min_sim", Value(0.1)}};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("menu_text")) {
      return Status::InvalidArgument("needs menu_text");
    }
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"menu_sim", DataType::kDouble}));
    return out;
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& menu = in.column(ctx.cols[0]);
    std::string buf;
    const std::set<std::string> ref = WordSet(ctx.params[0].ToString(), &buf);
    const double min_sim = ctx.params[1].ToDouble();
    const size_t sim_col = in.num_columns();
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      const double sim =
          menu.IsNull(i) ? 0.0 : Jaccard(WordSet(menu.StringAt(i), &buf), ref);
      if (sim > min_sim) {
        out->Keep(i);
        out->AppendDouble(sim_col, sim);
      }
    }
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeParseLogUdf() {
  UdfDefinition udf;
  udf.name = "UDF_PARSE_LOG";
  udf.model.consumed = {"raw_meta"};
  udf.model.kept = {"*"};
  udf.model.outputs = {
      {"lang", DataType::kString, {"raw_meta"}, {}},
      {"device", DataType::kString, {"raw_meta"}, {}},
  };
  udf.model.expansion_hint = 1.0;

  LocalFunction lf1;
  lf1.name = "parselog-lf1";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs;
  lf1.reads = {"raw_meta"};
  lf1.passed = {"*"};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("raw_meta")) return Status::InvalidArgument("needs raw_meta");
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"lang", DataType::kString}));
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"device", DataType::kString}));
    return out;
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& meta = in.column(ctx.cols[0]);
    const size_t lang_col = in.num_columns();
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      std::string_view lang, device;
      ParseLogFields(meta.IsNull(i) ? std::string_view() : meta.StringAt(i),
                     &lang, &device);
      out->Keep(i);
      out->AppendString(lang_col, lang);
      out->AppendString(lang_col + 1, device);
    }
  };
  udf.local_functions.push_back(std::move(lf1));
  return udf;
}

UdfDefinition MakeHashtagTrendsUdf() {
  UdfDefinition udf;
  udf.name = "UDF_HASHTAG_TRENDS";
  udf.model.consumed = {"user_id", "tweet_text"};
  udf.model.kept = {};
  udf.model.outputs = {
      {"tag", DataType::kString, {"tweet_text"}, {}},
      {"tag_users", DataType::kInt64, {"user_id", "tweet_text"}, {}},
      {"trend_tier", DataType::kString, {"user_id", "tweet_text"},
       {"min_users"}},
  };
  udf.model.filters = {{"tag_users", afk::CmpOp::kGt, "min_users", 2.0}};
  udf.model.rekey = std::vector<std::string>{"tag"};
  udf.model.expansion_hint = 0.01;

  LocalFunction lf1;
  lf1.name = "hashtags-lf1-extract";
  lf1.kind = LfKind::kMap;
  lf1.op_types = kOpAttrs | kOpFilter;
  lf1.reads = {"tweet_text", "user_id"};
  lf1.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    if (!in.Has("user_id") || !in.Has("tweet_text")) {
      return Status::InvalidArgument("needs user_id, tweet_text");
    }
    return TwoColSchema("tag", DataType::kString, "_user", DataType::kInt64);
  };
  lf1.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& text = in.column(ctx.cols[0]);
    const ColumnVector& users = in.column(ctx.cols[1]);
    std::string tag;
    for (size_t r = 0; r < in.num_rows(); ++r) {
      if (text.IsNull(r)) continue;
      const std::string_view s = text.StringAt(r);
      size_t i = 0;
      while ((i = s.find('#', i)) != std::string_view::npos) {
        size_t j = i + 1;
        while (j < s.size() && (std::isalnum(static_cast<unsigned char>(s[j])) ||
                                s[j] == '_')) {
          ++j;
        }
        if (j > i + 1) {
          tag.clear();
          for (size_t c = i + 1; c < j; ++c) {
            tag.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(s[c]))));
          }
          out->AppendString(0, tag);
          out->AppendCell(1, users, r);
        }
        i = j;
      }
    }
  };
  udf.local_functions.push_back(std::move(lf1));

  LocalFunction lf2;
  lf2.name = "hashtags-lf2-distinct-users";
  lf2.kind = LfKind::kReduce;
  lf2.op_types = kOpGroup | kOpAttrs;
  lf2.group_keys = {"tag"};
  lf2.reads = {"_user"};
  lf2.passed = {"tag"};
  lf2.out_schema = [](const Schema&, const Params&) -> Result<Schema> {
    return TwoColSchema("tag", DataType::kString, "tag_users",
                        DataType::kInt64);
  };
  lf2.reduce_fn = [](const RowBatch& in, RowRange group, const LfContext& ctx,
                     BatchBuilder* out) {
    const ColumnVector& users = in.column(ctx.cols[0]);
    std::set<int64_t> distinct;
    for (size_t r = group.begin; r < group.end; ++r) {
      distinct.insert(users.Int64At(r));
    }
    out->Keep(static_cast<uint32_t>(group.begin));
    out->AppendInt64(1, static_cast<int64_t>(distinct.size()));
  };
  udf.local_functions.push_back(std::move(lf2));

  LocalFunction lf3;
  lf3.name = "hashtags-lf3-tier";
  lf3.kind = LfKind::kMap;
  lf3.op_types = kOpAttrs | kOpFilter;
  lf3.reads = {"tag_users"};
  lf3.passed = {"*"};
  lf3.params = {{"min_users", Value(2.0)}};
  lf3.out_schema = [](const Schema& in, const Params&) -> Result<Schema> {
    Schema out = in;
    OPD_RETURN_NOT_OK(out.AddColumn(Column{"trend_tier", DataType::kString}));
    return out;
  };
  lf3.map_fn = [](const RowBatch& in, const LfContext& ctx,
                  BatchBuilder* out) {
    const ColumnVector& tag_users = in.column(ctx.cols[0]);
    const double min_users = ctx.params[0].ToDouble();
    const size_t tier_col = in.num_columns();
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      const double users = tag_users.DoubleAt(i);
      if (users <= min_users) continue;
      out->Keep(i);
      out->AppendString(tier_col, users > 4 * min_users ? "hot" : "rising");
    }
  };
  udf.local_functions.push_back(std::move(lf3));
  return udf;
}

Status RegisterBuiltinUdfs(UdfRegistry* registry) {
  OPD_RETURN_NOT_OK(registry->Register(MakeHashtagTrendsUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeClassifyWineScoreUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeClassifyFoodScoreUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeClassifyAffluentUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeFriendshipStrengthUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeNetworkInfluenceUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeExtractLatLonUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeGeoTileUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeTokenizeUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeWordCountUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeMenuSimilarityUdf()));
  OPD_RETURN_NOT_OK(registry->Register(MakeParseLogUdf()));
  // Opaque predicate: non-empty, parsable geo string.
  OPD_RETURN_NOT_OK(registry->RegisterPredicate(
      "valid_geo",
      [](const std::vector<storage::Value>& args, const Params&) {
        if (args.empty() || args[0].is_null()) return false;
        double lat, lon;
        return ParseLatLon(args[0].as_string(), &lat, &lon);
      }));
  return Status::OK();
}

}  // namespace opd::udf
