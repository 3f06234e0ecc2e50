#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "rdbms/table.h"

/// Heap accounting test (ISSUE 9): Table maintains HeapBytes() incrementally
/// on every DML — including observer-driven rollbacks — and the invariant
/// pinned here is *exact* equality with the O(rows) RecomputeHeapBytes()
/// walk, which applies the same size-based formula from scratch. Any drift
/// between the two means an accounting bug, not an estimate mismatch.

namespace fsdm::rdbms {
namespace {

std::unique_ptr<Table> MakeDocs() {
  return std::make_unique<Table>(
      "ACCT", std::vector<ColumnDef>{
                  {.name = "DID", .type = ColumnType::kNumber},
                  {.name = "JDOC",
                   .type = ColumnType::kJson,
                   .check_is_json = true},
              });
}

/// Fails every OnInsert/OnReplace/OnDelete, forcing the table's rollback
/// path: accounting must end at its pre-DML value.
class VetoObserver final : public TableObserver {
 public:
  Status OnInsert(size_t, const Row&) override { return Veto(); }
  Status OnDelete(size_t, const Row&) override { return Veto(); }
  Status OnReplace(size_t, const Row&, const Row&) override { return Veto(); }

 private:
  static Status Veto() { return Status::InvalidArgument("vetoed by test"); }
};

std::string Doc(int i, size_t pad = 0) {
  return "{\"id\":" + std::to_string(i) + ",\"pad\":\"" +
         std::string(pad, 'x') + "\"}";
}

TEST(TableAccountingTest, InsertReplaceDeleteStayReconciled) {
  auto table = MakeDocs();
  EXPECT_EQ(table->HeapBytes(), table->RecomputeHeapBytes());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table
                    ->Insert({Value::Int64(i),
                              Value::String(Doc(i, 10 * (i % 5)))})
                    .ok());
    EXPECT_EQ(table->HeapBytes(), table->RecomputeHeapBytes()) << "insert " << i;
  }
  EXPECT_GT(table->HeapBytes(), 0u);

  // Replace with both larger and smaller payloads.
  ASSERT_TRUE(table->Replace(3, {Value::Int64(3), Value::String(Doc(3, 500))})
                  .ok());
  EXPECT_EQ(table->HeapBytes(), table->RecomputeHeapBytes());
  ASSERT_TRUE(table->Replace(3, {Value::Int64(3), Value::String(Doc(3))}).ok());
  EXPECT_EQ(table->HeapBytes(), table->RecomputeHeapBytes());

  // Delete only tombstones: the bytes stay counted (the row storage is not
  // reclaimed) and the recompute walk agrees because it counts dead rows
  // too.
  const uint64_t before_delete = table->HeapBytes();
  ASSERT_TRUE(table->Delete(7).ok());
  EXPECT_FALSE(table->IsLive(7));
  EXPECT_EQ(table->HeapBytes(), before_delete);
  EXPECT_EQ(table->HeapBytes(), table->RecomputeHeapBytes());
}

TEST(TableAccountingTest, RolledBackDmlLeavesAccountingUntouched) {
  auto table = MakeDocs();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        table->Insert({Value::Int64(i), Value::String(Doc(i, 40))}).ok());
  }
  const uint64_t steady = table->HeapBytes();
  ASSERT_EQ(steady, table->RecomputeHeapBytes());

  VetoObserver veto;
  table->AddObserver(&veto);
  EXPECT_FALSE(
      table->Insert({Value::Int64(99), Value::String(Doc(99, 100))}).ok());
  EXPECT_FALSE(
      table->Replace(2, {Value::Int64(2), Value::String(Doc(2, 999))}).ok());
  EXPECT_FALSE(table->Delete(1).ok());
  table->RemoveObserver(&veto);

  EXPECT_EQ(table->HeapBytes(), steady);
  EXPECT_EQ(table->HeapBytes(), table->RecomputeHeapBytes());
  EXPECT_TRUE(table->IsLive(1));

  // The table still works after the rollbacks, and accounting follows.
  ASSERT_TRUE(
      table->Insert({Value::Int64(5), Value::String(Doc(5, 8))}).ok());
  EXPECT_GT(table->HeapBytes(), steady);
  EXPECT_EQ(table->HeapBytes(), table->RecomputeHeapBytes());
}

TEST(TableAccountingTest, ConstraintViolationLeavesAccountingUntouched) {
  auto table = MakeDocs();
  ASSERT_TRUE(table->Insert({Value::Int64(1), Value::String(Doc(1))}).ok());
  const uint64_t steady = table->HeapBytes();

  // IS JSON check rejects the row before it is stored.
  EXPECT_FALSE(
      table->Insert({Value::Int64(2), Value::String("{not json")}).ok());
  EXPECT_EQ(table->HeapBytes(), steady);
  EXPECT_EQ(table->HeapBytes(), table->RecomputeHeapBytes());
}

// LiveRowCount() is maintained by DML (the collection's document_count()
// reads it on every routed query); RecountLiveRows() walks the tombstones.
TEST(TableAccountingTest, LiveRowCountMatchesRecount) {
  auto table = MakeDocs();
  EXPECT_EQ(table->LiveRowCount(), 0u);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        table->Insert({Value::Int64(i), Value::String(Doc(i, i))}).ok());
    EXPECT_EQ(table->LiveRowCount(), table->RecountLiveRows()) << "insert " << i;
  }
  EXPECT_EQ(table->LiveRowCount(), 12u);

  ASSERT_TRUE(table->Delete(4).ok());
  ASSERT_TRUE(table->Delete(9).ok());
  EXPECT_FALSE(table->Delete(4).ok());  // already dead: no double count
  EXPECT_EQ(table->LiveRowCount(), 10u);
  EXPECT_EQ(table->LiveRowCount(), table->RecountLiveRows());

  ASSERT_TRUE(
      table->Replace(2, {Value::Int64(2), Value::String(Doc(2, 77))}).ok());
  EXPECT_FALSE(
      table->Replace(4, {Value::Int64(4), Value::String(Doc(4))}).ok());
  EXPECT_EQ(table->LiveRowCount(), 10u);
  EXPECT_EQ(table->LiveRowCount(), table->RecountLiveRows());

  // Observer-vetoed DML rolls back: an aborted insert leaves no live row,
  // an aborted delete leaves the row live.
  VetoObserver veto;
  table->AddObserver(&veto);
  EXPECT_FALSE(
      table->Insert({Value::Int64(99), Value::String(Doc(99))}).ok());
  EXPECT_FALSE(table->Delete(1).ok());
  EXPECT_FALSE(
      table->Replace(3, {Value::Int64(3), Value::String(Doc(3, 5))}).ok());
  table->RemoveObserver(&veto);
  EXPECT_EQ(table->LiveRowCount(), 10u);
  EXPECT_EQ(table->LiveRowCount(), table->RecountLiveRows());

  // A constraint-rejected insert never stores a row.
  EXPECT_FALSE(
      table->Insert({Value::Int64(100), Value::String("{not json")}).ok());
  EXPECT_EQ(table->LiveRowCount(), table->RecountLiveRows());
}

}  // namespace
}  // namespace fsdm::rdbms
