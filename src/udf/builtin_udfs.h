// The workload UDF library (Section 8.2): sentiment classifiers, tokenizer,
// lat/lon extractor, word count, menu similarity, geographic tiling, log
// parser, friendship strength, network influence.
//
// Each UDF is a composition of batch-at-a-time local functions performing
// genuine work (tokenizing, scoring, parsing) plus its gray-box model
// annotation. UDFs are
// referenced from plans by name via the UdfRegistry.

#ifndef OPD_UDF_BUILTIN_UDFS_H_
#define OPD_UDF_BUILTIN_UDFS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "udf/udf_registry.h"

namespace opd::udf {

// --- Text analytics helpers (exposed for tests) ---------------------------
// The per-row definitions of what the UDFs compute; the reference
// interpreter's UDF bodies are built on them. The batch bodies share
// GeoTileId and ParseLatLon, and compute the others allocation-free
// (words lowercased into one reused buffer, log fields as views).

/// Sums lexicon weights of the words in `text`. Lexicon names: "wine",
/// "food", "luxury". Unknown lexicons score 0.
double LexiconScore(std::string_view text, const std::string& lexicon);

/// Jaccard similarity of the word sets of two texts, in [0, 1].
double JaccardSimilarity(std::string_view a, std::string_view b);

/// Grid cell id for (lat, lon) with cells of `tile_size` degrees.
int64_t GeoTileId(double lat, double lon, double tile_size);

/// Parses "lat,lon"; returns false on malformed input.
bool ParseLatLon(std::string_view geo, double* lat, double* lon);

/// Parses "lang=xx;dev=yyy" metadata; missing fields become "unknown".
void ParseLogMeta(std::string_view meta, std::string* lang,
                  std::string* device);

// --- UDF factories ---------------------------------------------------------
// Parameter keys are documented per UDF; thresholds are *filter* parameters
// (they do not enter attribute signatures), so re-running with a different
// threshold can still reuse an earlier view.

/// UDF_CLASSIFY_WINE_SCORE(user_id, tweet_text; threshold):
/// per-user summed wine sentiment `wine_score`, filtered > threshold,
/// regrouped on user_id. Two local functions (map scorer, reduce summer).
UdfDefinition MakeClassifyWineScoreUdf();

/// UDF_CLASSIFY_FOOD_SCORE(user_id, tweet_text; threshold): the paper's
/// UDF_FOODIES — per-user summed food sentiment `sent_sum` > threshold.
UdfDefinition MakeClassifyFoodScoreUdf();

/// UDAF_CLASSIFY_AFFLUENT(user_id, tweet_text; min_affluence): per-user mean
/// luxury-lexicon signal `affluence` > min_affluence.
UdfDefinition MakeClassifyAffluentUdf();

/// UDF_FRIENDSHIP_STRENGTH(user_id, mention_user; min_strength): normalized
/// communicating pairs (user_a, user_b) with communication count `strength`
/// > min_strength, keyed on the pair.
UdfDefinition MakeFriendshipStrengthUdf();

/// UDF_NETWORK_INFLUENCE(user_a, user_b, strength; min_influence): per-user
/// summed incident strength (`inf_user`, `influence`) > min_influence.
UdfDefinition MakeNetworkInfluenceUdf();

/// UDF_EXTRACT_LATLON(geo): parses `geo` into `lat`, `lon`, dropping rows
/// with malformed coordinates (opaque filter "valid_geo").
UdfDefinition MakeExtractLatLonUdf();

/// UDF_GEO_TILE(lat, lon; tile_size): adds `tile_id`. tile_size is a
/// value-affecting parameter (part of tile_id's signature).
UdfDefinition MakeGeoTileUdf();

/// UDF_TOKENIZE(user_id, tweet_text): explodes tweets into (user_id, token)
/// rows; expansion > 1.
UdfDefinition MakeTokenizeUdf();

/// UDF_WORD_COUNT(token; min_count): (word, wcount) keyed on word with
/// wcount > min_count.
UdfDefinition MakeWordCountUdf();

/// UDF_MENU_SIMILARITY(menu_text; ref_menu, min_sim): Jaccard similarity
/// `menu_sim` of each menu against the reference menu (value-affecting
/// param ref_menu), filtered > min_sim.
UdfDefinition MakeMenuSimilarityUdf();

/// UDF_PARSE_LOG(raw_meta): extracts `lang` and `device` from the raw log
/// metadata field.
UdfDefinition MakeParseLogUdf();

/// UDF_HASHTAG_TRENDS(user_id, tweet_text; min_users): a *three-stage* UDF
/// (map, reduce, map): extracts #hashtags, counts distinct users per tag,
/// then tiers tags into "hot"/"rising" and filters by min_users. The tier
/// boundary depends on min_users, so it is a value-affecting parameter of
/// `trend_tier` (but not of `tag`/`tag_users`).
UdfDefinition MakeHashtagTrendsUdf();

/// Registers all of the above plus the opaque predicates they rely on.
Status RegisterBuiltinUdfs(UdfRegistry* registry);

}  // namespace opd::udf

#endif  // OPD_UDF_BUILTIN_UDFS_H_
