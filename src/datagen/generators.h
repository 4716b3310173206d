// Synthetic generators for the paper's three datasets (Section 8). Each
// generator produces clustered values exhibiting the same transformation
// families as the original data, plus exact ground truth; they stand in
// for the paper's original datasets, which this repository does not
// ship. All generators are deterministic in the seed. The `scale` field multiplies
// the cluster count, so benches can run anywhere from smoke-test to
// paper-size workloads.
#ifndef USTL_DATAGEN_GENERATORS_H_
#define USTL_DATAGEN_GENERATORS_H_

#include <cstdint>

#include "datagen/dataset.h"

namespace ustl {

/// NYC discretionary-funding Address analog: street suffix / state /
/// direction abbreviations and ordinal stripping; conflicting addresses
/// within clusters (Table 6: 18% variant, 82% conflict pairs).
struct AddressGenOptions {
  double scale = 1.0;
  size_t base_clusters = 300;
  double mean_cluster_size = 5.8;
  size_t max_cluster_size = 40;
  double p_conflict = 0.45;        // a record reports a different address
  double p_reuse_conflict = 0.5;   // conflicts repeat within a cluster
  double p_suffix_abbr = 0.5;
  double p_state_abbr = 0.5;
  double p_ordinal_strip = 0.35;
  double p_direction_abbr = 0.5;
  uint64_t seed = 1;
};
GeneratedDataset GenerateAddressDataset(const AddressGenOptions& options);

/// AbeBooks AuthorList analog: transposed "last, first" lists, initials,
/// nicknames, (edt)/(author) annotations, glued separators (Table 4
/// groups A-E; Table 6: 26.5% variant pairs).
struct AuthorListGenOptions {
  double scale = 1.0;
  size_t base_clusters = 140;
  double mean_cluster_size = 9.0;
  size_t max_cluster_size = 40;
  double p_conflict = 0.3;
  double p_reuse_conflict = 0.5;
  double p_transpose = 0.35;       // "last, first" author format
  double p_initials = 0.25;        // "d. fox"
  double p_nickname = 0.2;         // robert -> bob
  double p_annotation = 0.2;       // trailing "(edt)" etc.
  double p_glue = 0.08;            // missing separator between authors
  uint64_t seed = 2;
};
GeneratedDataset GenerateAuthorListDataset(const AuthorListGenOptions& options);

/// Rayyan JournalTitle analog: word abbreviations, case folding, &/and,
/// article dropping (Table 6: 74% variant pairs, small clusters).
struct JournalTitleGenOptions {
  double scale = 1.0;
  size_t base_clusters = 700;
  double mean_cluster_size = 1.9;
  size_t max_cluster_size = 16;
  double p_conflict = 0.12;
  double p_reuse_conflict = 0.5;
  double p_abbreviate = 0.45;      // dictionary word abbreviation style
  double p_lowercase = 0.2;
  double p_amp = 0.5;              // "and" -> "&" when present
  double p_drop_the = 0.5;         // drop a leading "The "
  uint64_t seed = 3;
};
GeneratedDataset GenerateJournalTitleDataset(
    const JournalTitleGenOptions& options);

/// Convenience: the three datasets at a common scale and seed offset.
struct AllDatasets {
  GeneratedDataset author_list;
  GeneratedDataset address;
  GeneratedDataset journal_title;
};
AllDatasets GenerateAllDatasets(double scale, uint64_t seed);

}  // namespace ustl

#endif  // USTL_DATAGEN_GENERATORS_H_
