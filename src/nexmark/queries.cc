#include "src/nexmark/queries.h"

#include "src/nexmark/udfs.h"

namespace impeller {

// Every operator body lives in src/nexmark/udfs.cc under a stable name, so
// the declarative plan path (src/nexmark/plan_queries.cc) lowers to
// byte-identical logic: both paths call the same functions.
using namespace nexmark;  // NOLINT(build/namespaces)

namespace {

QueryBuilder MakeBuilder(int number) {
  std::string name = "q";
  name += std::to_string(number);
  return QueryBuilder(name);
}

// --- Q1: currency conversion (USD -> EUR), map + filter ---

Result<QueryPlan> BuildQ1(const NexmarkQueryOptions& opt) {
  QueryBuilder qb = MakeBuilder(1);
  qb.Ingress("bids");
  qb.AddStage("convert", opt.tasks_per_stage)
      .ReadsFrom({"bids"})
      .Filter(NonEmptyValue)
      .Map(ConvertUsdToEur)
      .Sink("q1");
  return qb.Build();
}

// --- Q2: selection — bids on a sample of auctions ---

Result<QueryPlan> BuildQ2(const NexmarkQueryOptions& opt) {
  QueryBuilder qb = MakeBuilder(2);
  qb.Ingress("bids");
  qb.AddStage("filter", opt.tasks_per_stage)
      .ReadsFrom({"bids"})
      .Filter(BidOnSampledAuction)
      .Sink("q2");
  return qb.Build();
}

// --- Q3: local item suggestion — table-table join + group-by ---

Result<QueryPlan> BuildQ3(const NexmarkQueryOptions& opt) {
  QueryBuilder qb = MakeBuilder(3);
  qb.Ingress("auctions").Ingress("persons");
  qb.AddStage("fa", opt.tasks_per_stage)
      .ReadsFrom({"auctions"})
      .Filter(AuctionInCategory10)
      .KeyBy(AuctionSellerKey)
      .WritesTo("q3.auct");
  qb.AddStage("fp", opt.tasks_per_stage)
      .ReadsFrom({"persons"})
      .Filter(PersonInOrIdCa)
      .KeyBy(PersonIdKey)
      .WritesTo("q3.pers");
  qb.AddStage("join", opt.tasks_per_stage)
      .ReadsFrom({"q3.auct", "q3.pers"})
      .JoinTables("q3j", JoinAuctionWithPerson)
      .KeyBy(JoinedRowStateKey)
      .WritesTo("q3.bystate");
  qb.AddStage("agg", opt.tasks_per_stage)
      .ReadsFrom({"q3.bystate"})
      .Aggregate("q3cnt", CountAgg())
      .Sink("q3");
  return qb.Build();
}

// --- Q4 helpers: bid x auction winning-bid pipeline shared with Q6 ---

// Shared first stages of Q4/Q6: key auctions by id and bids by auction,
// stream-stream join them, keep the running max (winning) bid per auction.
void AddWinningBidStages(QueryBuilder& qb, const NexmarkQueryOptions& opt,
                         const std::string& prefix) {
  qb.Ingress("bids").Ingress("auctions");
  qb.AddStage("ka", opt.tasks_per_stage)
      .ReadsFrom({"auctions"})
      .KeyBy(AuctionIdKey)
      .WritesTo(prefix + ".A");
  qb.AddStage("kb", opt.tasks_per_stage)
      .ReadsFrom({"bids"})
      .KeyBy(BidAuctionKey)
      .WritesTo(prefix + ".B");
}

StageBuilder& AddWinBidJoinStage(QueryBuilder& qb,
                                 const NexmarkQueryOptions& opt,
                                 const std::string& prefix) {
  return qb.AddStage("winbid", opt.tasks_per_stage)
      .ReadsFrom({prefix + ".B", prefix + ".A"})
      .JoinStreams(prefix + "j", opt.join_window, JoinBidWithAuction,
                   opt.allowed_lateness)
      .Filter(NonEmptyValue)
      .Aggregate(prefix + "max", MaxWinAgg());
}

// --- Q4: average price of winning bids per category ---

Result<QueryPlan> BuildQ4(const NexmarkQueryOptions& opt) {
  QueryBuilder qb = MakeBuilder(4);
  AddWinningBidStages(qb, opt, "q4");
  AddWinBidJoinStage(qb, opt, "q4")
      .KeyBy(WinCategoryKey)
      .WritesTo("q4.maxed");
  qb.AddStage("avg", opt.tasks_per_stage)
      .ReadsFrom({"q4.maxed"})
      .TableAggregate("q4avg", /*group_key=*/RecordKey, AvgPriceAgg(),
                      /*row_key=*/WinAuctionKey)
      .Sink("q4");
  return qb.Build();
}

// --- Q5: hot items — sliding-window bid counts, per-window max ---

Result<QueryPlan> BuildQ5(const NexmarkQueryOptions& opt) {
  QueryBuilder qb = MakeBuilder(5);
  qb.Ingress("bids");
  qb.AddStage("kb", opt.tasks_per_stage)
      .ReadsFrom({"bids"})
      .Filter(NonEmptyValue)
      .KeyBy(BidAuctionKey)
      .WritesTo("q5.byauction");
  qb.AddStage("win", opt.tasks_per_stage)
      .ReadsFrom({"q5.byauction"})
      // Kafka Streams semantics (§4): windowed counts emit eagerly as
      // suppressed updates, so result event times track fresh input.
      .WindowAggregate("q5w",
                       WindowSpec::Sliding(opt.q5_window, opt.q5_slide),
                       CountAgg(), opt.allowed_lateness,
                       WindowEmitMode::kEagerSuppressed)
      .Map(PackQ5WindowCount)
      .KeyBy(Q5WindowStartKey)
      .WritesTo("q5.counts");
  qb.AddStage("max", opt.tasks_per_stage)
      .ReadsFrom({"q5.counts"})
      .Aggregate("q5max", HottestAuctionAgg())
      .Sink("q5");
  return qb.Build();
}

// --- Q6: average selling price per seller, last 10 closed auctions ---

Result<QueryPlan> BuildQ6(const NexmarkQueryOptions& opt) {
  QueryBuilder qb = MakeBuilder(6);
  AddWinningBidStages(qb, opt, "q6");
  AddWinBidJoinStage(qb, opt, "q6").KeyBy(WinSellerKey).WritesTo("q6.wins");
  qb.AddStage("avg10", opt.tasks_per_stage)
      .ReadsFrom({"q6.wins"})
      .Aggregate("q6ring", Last10WinsAgg())
      .Sink("q6");
  return qb.Build();
}

// --- Q7: highest bid per tumbling window ---

Result<QueryPlan> BuildQ7(const NexmarkQueryOptions& opt) {
  QueryBuilder qb = MakeBuilder(7);
  qb.Ingress("bids");
  // Per-auction window maxima (the partial aggregation / "groupby" of
  // Table 3), then a global per-window max.
  qb.AddStage("win", opt.tasks_per_stage)
      .ReadsFrom({"bids"})
      .Filter(NonEmptyValue)
      .WindowAggregate("q7w", WindowSpec::Tumbling(opt.q7_window),
                       MaxBidAgg(), opt.allowed_lateness,
                       WindowEmitMode::kEagerSuppressed)
      .KeyBy(WindowStartKey)
      .WritesTo("q7.partial");
  qb.AddStage("max", opt.tasks_per_stage)
      .ReadsFrom({"q7.partial"})
      .Aggregate("q7max", MaxOfWindowMaxAgg())
      .Sink("q7");
  return qb.Build();
}

// --- Q8: monitor new users — person x new-auction windowed join ---

Result<QueryPlan> BuildQ8(const NexmarkQueryOptions& opt) {
  QueryBuilder qb = MakeBuilder(8);
  qb.Ingress("persons").Ingress("auctions");
  qb.AddStage("kp", opt.tasks_per_stage)
      .ReadsFrom({"persons"})
      .KeyBy(PersonIdKey)
      .WritesTo("q8.P");
  qb.AddStage("ka", opt.tasks_per_stage)
      .ReadsFrom({"auctions"})
      .KeyBy(AuctionSellerKey)
      .WritesTo("q8.A");
  qb.AddStage("join", opt.tasks_per_stage)
      .ReadsFrom({"q8.P", "q8.A"})
      .JoinStreams("q8j", opt.q8_window, JoinPersonWithAuction,
                   opt.allowed_lateness)
      .Aggregate("q8cnt", CountAgg())
      .Sink("q8");
  return qb.Build();
}

}  // namespace

Result<QueryPlan> BuildNexmarkQuery(int number,
                                    const NexmarkQueryOptions& options) {
  switch (number) {
    case 1:
      return BuildQ1(options);
    case 2:
      return BuildQ2(options);
    case 3:
      return BuildQ3(options);
    case 4:
      return BuildQ4(options);
    case 5:
      return BuildQ5(options);
    case 6:
      return BuildQ6(options);
    case 7:
      return BuildQ7(options);
    case 8:
      return BuildQ8(options);
    default:
      return InvalidArgumentError("NEXMark queries are numbered 1-8");
  }
}

std::vector<std::string> NexmarkIngressStreams(int number) {
  switch (number) {
    case 1:
    case 2:
    case 5:
    case 7:
      return {"bids"};
    case 3:
      return {"auctions", "persons"};
    case 4:
    case 6:
      return {"bids", "auctions"};
    case 8:
      return {"persons", "auctions"};
    default:
      return {};
  }
}

std::string NexmarkSinkName(int number) {
  std::string name = "q";
  name += std::to_string(number);
  return name;
}

std::string NexmarkSinkStage(int number) {
  switch (number) {
    case 1:
      return "convert";
    case 2:
      return "filter";
    case 3:
      return "agg";
    case 4:
      return "avg";
    case 5:
      return "max";
    case 6:
      return "avg10";
    case 7:
      return "max";
    case 8:
      return "join";
    default:
      return "";
  }
}

}  // namespace impeller
